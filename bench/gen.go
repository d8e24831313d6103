package main

import (
	"math/rand"
	"strings"
)

// zipfText produces about n bytes of line-oriented text (lines of ~70
// columns) whose word frequencies follow the Zipf(1.2) distribution over a
// vocab-word vocabulary — the shape of workloads.Text. The runner has its
// own generator because workloads.Text rebuilds its syllable table for
// every word (1.5 s per 4 MiB), which the set-up budget of a run that
// generates 32 MiB three times cannot pay.
func zipfText(rng *rand.Rand, n int, vocab []string) []byte {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(vocab)-1))
	out := make([]byte, 0, n+80)
	col := 0
	for len(out) < n {
		w := vocab[zipf.Uint64()]
		out = append(out, w...)
		col += len(w) + 1
		if col >= 70 {
			out = append(out, '\n')
			col = 0
		} else {
			out = append(out, ' ')
		}
	}
	if col > 0 {
		out[len(out)-1] = '\n'
	}
	return out
}

// vocabulary returns n distinct lower-case pronounceable tokens; index i
// is word i's digits in base 45 spelled as syllables.
func vocabulary(n int) []string {
	var syllables []string
	for _, c := range "bdklmnrst" {
		for _, v := range "aeiou" {
			syllables = append(syllables, string(c)+string(v))
		}
	}
	words := make([]string, n)
	for i := range words {
		var b strings.Builder
		for v := i; ; v /= len(syllables) {
			b.WriteString(syllables[v%len(syllables)])
			if v < len(syllables) {
				break
			}
		}
		words[i] = b.String()
	}
	return words
}

// grepWordRank is the vocabulary rank of the word the matching Grep jobs
// look for: about one word in 5000 of a Zipf(1.2) text, a few dozen
// matching lines per MiB. A fixed rank keeps the amount of output, and so
// the work per job, the same from seed to seed.
const grepWordRank = 300
