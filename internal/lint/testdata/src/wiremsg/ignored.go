package dhtfs

import "eclipsemr/internal/transport"

// checkpoint is a durable file, not a message: it is read back by later
// binaries, so it stays on gob's self-describing format.
type checkpoint struct {
	Done []string
}

func saveCheckpoint(c checkpoint) ([]byte, error) {
	//lint:ignore wiremsg durable file read back across versions; gob's self-describing format is the point
	return transport.Encode(c)
}
