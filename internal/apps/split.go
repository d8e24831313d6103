package apps

import (
	"bytes"
	"fmt"
	"strconv"
)

// Decoded splits of the iterative applications (mapreduce.DecodeFunc):
// what a block of text parses to, kept by the worker's iCache so that
// only the first task over a cached block pays for strconv. A decoder
// sees the block alone; what a job's parameters say about the data (the
// dimension) is recorded in the split and checked by the map function.

// pointSplit is a block of numeric rows, row after row in one slice:
// points for k-means, label-then-point for logistic regression.
type pointSplit struct {
	vals []float64
	// width is the number of values in every row; 0 when there is none.
	width int
}

func (s *pointSplit) size() int64 { return 32 + 8*int64(cap(s.vals)) }

// decodeRows parses every non-empty line of the block with parse, which
// appends the line's values, and insists that all rows are equally wide.
func decodeRows(block []byte, parse func(dst []float64, line []byte) ([]float64, error)) (any, int64, error) {
	s := &pointSplit{}
	err := splitLines(block, func(line []byte) error {
		var err error
		before := len(s.vals)
		if s.vals, err = parse(s.vals, line); err != nil {
			return err
		}
		got := len(s.vals) - before
		if before == 0 {
			// One allocation, sized from the first row, holds the block.
			s.width = got
			rows := bytes.Count(block, newline) + 1
			s.vals = append(make([]float64, 0, rows*got), s.vals...)
		} else if got != s.width {
			return fmt.Errorf("apps: row %.40q has %d values, the block's first has %d", line, got, s.width)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return s, s.size(), nil
}

var (
	newline = []byte{'\n'}
	comma   = []byte{','}
	space   = []byte{' '}
)

// decodePoints parses a block of comma-separated points.
func decodePoints(block []byte) (any, int64, error) {
	return decodeRows(block, appendPoint)
}

// decodeLabeledPoints parses a block of "label x1,x2,..." lines into rows
// of label then coordinates.
func decodeLabeledPoints(block []byte) (any, int64, error) {
	return decodeRows(block, func(dst []float64, line []byte) ([]float64, error) {
		label, point, ok := bytes.Cut(line, space)
		if !ok {
			return dst, fmt.Errorf("apps: logreg: malformed point %.40q", line)
		}
		y, err := strconv.ParseFloat(string(label), 64)
		if err != nil {
			return dst, fmt.Errorf("apps: logreg: bad label %q: %w", label, err)
		}
		return appendPoint(append(dst, y), point)
	})
}

// appendPoint parses a comma-separated float vector in place.
func appendPoint(dst []float64, line []byte) ([]float64, error) {
	for more := true; more; {
		var field []byte
		field, line, more = bytes.Cut(line, comma)
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
		if err != nil {
			return dst, fmt.Errorf("apps: bad coordinate %q: %w", field, err)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// points returns the split as rows of width values, or an error when the
// application was handed something else or the job expects another width.
func points(app string, split any, width int) (*pointSplit, error) {
	s, ok := split.(*pointSplit)
	if !ok {
		return nil, fmt.Errorf("apps: %s: split is a %T", app, split)
	}
	if s.width != width && len(s.vals) > 0 {
		return nil, fmt.Errorf("apps: %s: block rows have %d values, want %d", app, s.width, width)
	}
	return s, nil
}

// graphSplit is a block of adjacency lines ("src dst dst ..."): every
// node name of the block back to back in one string, and where each name
// and each line ends.
type graphSplit struct {
	names string
	// nameEnd[i] is the end of name i in names; it starts where name i-1
	// ends.
	nameEnd []uint32
	// lineEnd[r] is the index after line r's last name; its first name,
	// the source, follows line r-1's last.
	lineEnd []uint32
}

func (g *graphSplit) name(i uint32) string {
	start := uint32(0)
	if i > 0 {
		start = g.nameEnd[i-1]
	}
	return g.names[start:g.nameEnd[i]]
}

// decodeGraph parses a block of adjacency lines; blank lines are skipped.
func decodeGraph(block []byte) (any, int64, error) {
	g := &graphSplit{}
	names := make([]byte, 0, len(block))
	// The callback never fails, so neither does the walk.
	_ = splitLines(block, func(line []byte) error {
		fields := bytes.Fields(line)
		if len(fields) == 0 {
			return nil
		}
		for _, f := range fields {
			names = append(names, f...)
			g.nameEnd = append(g.nameEnd, uint32(len(names)))
		}
		g.lineEnd = append(g.lineEnd, uint32(len(g.nameEnd)))
		return nil
	})
	g.names = string(names)
	return g, 48 + int64(len(g.names)) + 4*int64(cap(g.nameEnd)+cap(g.lineEnd)), nil
}
