// Package apps implements the MapReduce applications the paper evaluates
// (§III): word count, grep, inverted index, sort, and the iterative
// k-means, page rank and logistic regression, plus the per-iteration
// drivers the iterative applications need. Applications register
// themselves under the names used throughout the benchmarks.
package apps

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"eclipsemr/internal/mapreduce"
)

// Application names as registered with the mapreduce package.
const (
	WordCount     = "wordcount"
	Grep          = "grep"
	InvertedIndex = "invertedindex"
	Sort          = "sort"
	KMeans        = "kmeans"
	PageRank      = "pagerank"
	LogReg        = "logreg"
)

// Runner abstracts the job-submission surface (cluster.Cluster satisfies
// it) so iterative drivers do not depend on the cluster package.
type Runner interface {
	Run(spec mapreduce.JobSpec) (mapreduce.Result, error)
	Collect(res mapreduce.Result, user string) ([]mapreduce.KV, error)
}

func init() {
	mapreduce.Register(WordCount, mapreduce.App{
		Map:     wordCountMap,
		Reduce:  sumReduce,
		Combine: sumReduce,
	})
	mapreduce.Register(Grep, mapreduce.App{
		Map:     grepMap,
		Reduce:  sumReduce,
		Combine: sumReduce,
	})
	mapreduce.Register(InvertedIndex, mapreduce.App{
		Map:    invertedIndexMap,
		Reduce: invertedIndexReduce,
	})
	mapreduce.Register(Sort, mapreduce.App{
		Map:    sortMap,
		Reduce: sortReduce,
	})
	// The iterative applications read the same blocks every iteration, so
	// they register a decoder: a block is parsed when it enters a node's
	// iCache, not once per iteration (split.go).
	mapreduce.Register(KMeans, mapreduce.App{
		Decode:     decodePoints,
		MapDecoded: kmeansMap,
		Reduce:     kmeansReduce,
		Combine:    kmeansReduce,
	})
	mapreduce.Register(PageRank, mapreduce.App{
		Decode:     decodeGraph,
		MapDecoded: pageRankMap,
		Reduce:     pageRankReduce,
	})
	mapreduce.Register(LogReg, mapreduce.App{
		Decode:     decodeLabeledPoints,
		MapDecoded: logRegMap,
		Reduce:     logRegReduce,
		Combine:    logRegReduce,
	})
}

// wordCountMap emits (word, 1) for every whitespace-separated token, the
// tokens being exactly strings.Fields's. One conversion of the block makes
// every word a substring of it; ASCII text is then cut in place, with no
// list of words built first, and from the first byte that is not ASCII on
// (where what counts as a space takes decoding) strings.Fields does the
// rest.
func wordCountMap(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	text := string(input)
	start := -1 // where the word being read began, -1 between words
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			if start < 0 {
				start = i
			}
			for _, w := range strings.Fields(text[start:]) {
				if err := emit(w, one); err != nil {
					return err
				}
			}
			return nil
		}
		if c == ' ' || c-'\t' < 5 { // \t \n \v \f \r
			if start >= 0 {
				if err := emit(text[start:i], one); err != nil {
					return err
				}
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		return emit(text[start:], one)
	}
	return nil
}

var one = []byte("1")

// sumReduce adds integer-encoded values, the shared reducer/combiner of
// word count and grep. Nearly every value a combiner sees is the mapper's
// "1": one digit is added as it stands, anything else goes through
// strconv.ParseInt, which also words every error.
func sumReduce(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	total := int64(0)
	for _, v := range values {
		if len(v) == 1 && v[0]-'0' <= 9 {
			total += int64(v[0] - '0')
			continue
		}
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return fmt.Errorf("apps: bad count %q for key %q: %w", v, key, err)
		}
		total += n
	}
	var digits [20]byte // fits any int64
	return emit(key, strconv.AppendInt(digits[:0], total, 10))
}

// grepMap emits matching lines; the pattern comes from the "pattern"
// parameter.
func grepMap(params mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	pattern := params["pattern"]
	if len(pattern) == 0 {
		return fmt.Errorf("apps: grep requires a %q parameter", "pattern")
	}
	if bytes.IndexByte(pattern, '\n') >= 0 {
		return nil // no line contains a line break
	}
	// Search the block, not its lines: only a line with a match is cut out
	// and copied.
	for off := 0; off < len(input); {
		at := bytes.Index(input[off:], pattern)
		if at < 0 {
			break
		}
		at += off
		start := bytes.LastIndexByte(input[:at], '\n') + 1
		end := len(input)
		if nl := bytes.IndexByte(input[at:], '\n'); nl >= 0 {
			end = at + nl
		}
		if err := emit(string(input[start:end]), one); err != nil {
			return err
		}
		off = end + 1
	}
	return nil
}

// invertedIndexMap parses "docID\ttext" lines and emits (word, docID).
func invertedIndexMap(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	for _, line := range strings.Split(string(input), "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return fmt.Errorf("apps: inverted index: malformed document line %.40q", line)
		}
		doc := parts[0]
		for _, w := range strings.Fields(parts[1]) {
			if err := emit(w, []byte(doc)); err != nil {
				return err
			}
		}
	}
	return nil
}

// invertedIndexReduce emits the sorted, deduplicated posting list.
func invertedIndexReduce(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	seen := make(map[string]bool, len(values))
	docs := make([]string, 0, len(values))
	for _, v := range values {
		d := string(v)
		if !seen[d] {
			seen[d] = true
			docs = append(docs, d)
		}
	}
	sort.Strings(docs)
	return emit(key, []byte(strings.Join(docs, ",")))
}

// sortMap emits each record as a key (TeraSort-style identity map); the
// shuffle and reducer-side grouping do the sorting work, which is what
// the paper's sort benchmark stresses.
func sortMap(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	// Every line leaves as a key, so one conversion of the block is the
	// cheapest way to make the strings.
	text := string(input)
	for len(text) > 0 {
		line := text
		if nl := strings.IndexByte(text, '\n'); nl >= 0 {
			line, text = text[:nl], text[nl+1:]
		} else {
			text = ""
		}
		if line == "" {
			continue
		}
		if err := emit(line, one); err != nil {
			return err
		}
	}
	return nil
}

// sortReduce emits each distinct record with its multiplicity; within a
// partition the output is key-sorted.
func sortReduce(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	return emit(key, []byte(strconv.Itoa(len(values))))
}

// splitLines iterates the block's non-empty lines in place.
func splitLines(input []byte, fn func(line []byte) error) error {
	for len(input) > 0 {
		line := input
		if nl := bytes.IndexByte(input, '\n'); nl >= 0 {
			line, input = input[:nl], input[nl+1:]
		} else {
			input = nil
		}
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return nil
}

func sqDist(a, b []float64) float64 {
	d := 0.0
	for j := range a {
		d += (a[j] - b[j]) * (a[j] - b[j])
	}
	return d
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
