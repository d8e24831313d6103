// Package dhtfs is golden input for the wiremsg analyzer (the analyzer
// matches the data-path packages by name as well as import path).
package dhtfs

import "eclipsemr/internal/transport"

// plainReq has no compiled codec: Encode would fall back to gob.
type plainReq struct {
	Name string
}

func encodePlain(req plainReq) ([]byte, error) {
	return transport.Encode(req) // want "does not statically implement transport.Wire"
}

func decodePlain(body []byte) (plainReq, error) {
	var req plainReq
	err := transport.Decode(body, &req) // want "does not statically implement transport.Wire"
	return req, err
}

// untyped erases the message type, so nothing proves the codec is there.
func untyped(req any) ([]byte, error) {
	return transport.Encode(req) // want "does not statically implement transport.Wire"
}

func plainFrames(hdr plainReq, body []byte) error {
	frame, err := transport.EncodeFrame(hdr, body) // want "does not statically implement transport.Wire"
	if err != nil {
		return err
	}
	_, err = transport.DecodeFrame(frame, &hdr) // want "does not statically implement transport.Wire"
	return err
}
