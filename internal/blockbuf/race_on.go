//go:build race

package blockbuf

// RaceEnabled reports a build with the race detector, in which memory that
// was given up is overwritten (see poisonRecycled).
const RaceEnabled = true
