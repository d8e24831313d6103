//go:build !race

package blockbuf

const raceEnabled = false
