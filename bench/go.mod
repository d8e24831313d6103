module eclipsemr/bench

go 1.22

require eclipsemr v0.0.0

replace eclipsemr => ../
