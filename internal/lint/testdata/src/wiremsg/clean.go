package dhtfs

import "eclipsemr/internal/transport"

// wireReq carries the compiled codec: value receiver to append, pointer
// receiver to parse, so *wireReq implements transport.Wire.
type wireReq struct {
	Name string
}

func (m wireReq) AppendWire(dst []byte) []byte { return transport.AppendString(dst, m.Name) }

func (m *wireReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = wireReq{Name: r.Str()}
	return r.Done()
}

// byValue, byPointer and throughInterface are the three static shapes a
// call helper can have; all prove the codec.
func byValue(req wireReq) ([]byte, error) { return transport.Encode(req) }

func byPointer(body []byte) (wireReq, error) {
	var req wireReq
	err := transport.Decode(body, &req)
	return req, err
}

func throughInterface(req, resp transport.Wire) error {
	body, err := transport.Encode(req)
	if err != nil {
		return err
	}
	return transport.Decode(body, resp)
}

func frames(hdr wireReq, payload []byte) ([]byte, error) {
	frame, err := transport.EncodeFrame(hdr, payload)
	if err != nil {
		return nil, err
	}
	return transport.DecodeFrame(frame, &hdr)
}
