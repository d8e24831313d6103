package apps

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"eclipsemr/internal/mapreduce"
)

// wordCountTokens runs wordCountMap over input and returns the keys it
// emits, in order, checking every value is the mapper's "1".
func wordCountTokens(t testing.TB, input []byte) []string {
	t.Helper()
	var words []string
	err := wordCountMap(nil, input, func(key string, value []byte) error {
		if string(value) != "1" {
			t.Fatalf("word %q emitted with value %q", key, value)
		}
		words = append(words, key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return words
}

// wordCountCorners are the inputs on which an in-place tokenizer and
// strings.Fields could part ways: the two Latin-1 spaces and a wide one
// (U+0085 ends in a byte that is an ASCII control), invalid UTF-8, a
// non-ASCII byte in the middle of a word, every ASCII space, bytes just
// outside the ASCII space range, and no trailing newline.
var wordCountCorners = []string{
	"",
	" ",
	"one",
	"no trailing newline",
	"tabs\tand\vall\fthe\rASCII\nspaces \n",
	"\x08not\x0espaces\x1f\x00either",
	"next\u0085line",
	"no\u00a0break",
	"wide\u3000space and more",
	"café au lait",
	"bad \xff utf8 \xc2",
	"\xc2\x85",
	"ascii words first then one em\u2003space",
	"\u00a0leading",
	"trailing\u00a0",
}

// TestWordCountMapMatchesFields: the tokens are strings.Fields's, on the
// corner cases and on random mixes of ASCII words, ASCII spaces and the
// corner-case runes, cut at every length so the fallback starts between
// words, inside one and at the block's end.
func TestWordCountMapMatchesFields(t *testing.T) {
	for _, in := range wordCountCorners {
		if got, want := wordCountTokens(t, []byte(in)), strings.Fields(in); !slices.Equal(got, want) {
			t.Errorf("wordCountMap(%q) emits %q, strings.Fields gives %q", in, got, want)
		}
	}
	const asciiPieces = 12
	pieces := []string{"a", "bc", "word", " ", "  ", "\n", "\t", "\r\n", "\v", "\f", "\x00", "\x1c",
		"\u0085", "\u00a0", "\u3000", "é", "\xff", "\xc2", "\xe3\x80"}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		var b strings.Builder
		from := len(pieces)
		if rng.Intn(3) == 0 { // a third of the inputs never leave the fast path
			from = asciiPieces
		}
		for n := rng.Intn(30); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(from)])
		}
		full := b.String()
		for cut := 0; cut <= len(full); cut++ {
			in := full[:cut]
			if got, want := wordCountTokens(t, []byte(in)), strings.Fields(in); !slices.Equal(got, want) {
				t.Fatalf("wordCountMap(%q) emits %q, strings.Fields gives %q", in, got, want)
			}
		}
	}
}

func FuzzWordCountMap(f *testing.F) {
	for _, in := range wordCountCorners {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		if got, want := wordCountTokens(t, input), strings.Fields(string(input)); !slices.Equal(got, want) {
			t.Fatalf("wordCountMap(%q) emits %q, strings.Fields gives %q", input, got, want)
		}
	})
}

// TestWordCountMapStopsAtEmitError: an emit error ends the walk on both
// the in-place path and the strings.Fields one.
func TestWordCountMapStopsAtEmitError(t *testing.T) {
	boom := errors.New("boom")
	for _, in := range []string{"a b c d", "a\u00a0b c d", "a b"} {
		calls := 0
		err := wordCountMap(nil, []byte(in), func(string, []byte) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || calls != 2 {
			t.Errorf("wordCountMap(%q): err %v after %d emits, want boom after 2", in, err, calls)
		}
	}
}

// parentSumReduce is sumReduce as it stood before single digits were
// added in place: the reference for values and for error texts.
func parentSumReduce(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	total := int64(0)
	for _, v := range values {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return fmt.Errorf("apps: bad count %q for key %q: %w", v, key, err)
		}
		total += n
	}
	return emit(key, []byte(strconv.FormatInt(total, 10)))
}

func TestSumReduceMatchesParent(t *testing.T) {
	run := func(fn mapreduce.ReduceFunc, values [][]byte) string {
		out := "nothing emitted"
		err := fn(nil, "k", values, func(key string, value []byte) error {
			out = key + "=" + string(value)
			return nil
		})
		if err != nil {
			return "error: " + err.Error()
		}
		return out
	}
	cases := [][]string{
		{}, {"1"}, {"1", "1", "1"}, {"0"}, {"9", "9"}, {"7", "12", "1", "345"},
		{""}, {"+1"}, {"-0"}, {"-5", "2"}, {"1x"}, {"x"}, {" "}, {"/"}, {":"}, {"1", ""},
		{"9223372036854775808"}, {"9223372036854775807"}, {"-9223372036854775808"},
		{"9223372036854775807", "1"}, // wraps, as the parent's sum does
		{"01"}, {"1", "+"},
		{"١"}, // an Arabic-Indic digit is not a count
	}
	for _, c := range cases {
		values := make([][]byte, len(c))
		for i, v := range c {
			values[i] = []byte(v)
		}
		if got, want := run(sumReduce, values), run(parentSumReduce, values); got != want {
			t.Errorf("sumReduce(%q) gives %q, the parent %q", c, got, want)
		}
	}
}
