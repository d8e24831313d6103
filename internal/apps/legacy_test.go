package apps

import (
	"fmt"
	"strconv"
	"strings"

	"eclipsemr/internal/mapreduce"
)

// The map functions of the applications as they stood before decoded
// splits and the in-place line walks (commit c6a3dc2), verbatim but for
// their names: the reference the differential tests hold the current ones
// to, pair for pair and bit for bit. parsePoint keeps its name; the
// training-accuracy check of TestLogRegLearnsSeparator still calls it.

// legacyGrepMap emits matching lines; the pattern comes from the "pattern"
// parameter.
func legacyGrepMap(params mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	pattern := params.Get("pattern")
	if pattern == "" {
		return fmt.Errorf("apps: grep requires a %q parameter", "pattern")
	}
	for _, line := range strings.Split(string(input), "\n") {
		if strings.Contains(line, pattern) {
			if err := emit(line, one); err != nil {
				return err
			}
		}
	}
	return nil
}

// legacySortMap emits each record as a key (TeraSort-style identity map); the
// shuffle and reducer-side grouping do the sorting work, which is what
// the paper's sort benchmark stresses.
func legacySortMap(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	for _, line := range strings.Split(string(input), "\n") {
		if line == "" {
			continue
		}
		if err := emit(line, one); err != nil {
			return err
		}
	}
	return nil
}

// legacySplitLines iterates non-empty lines.
func legacySplitLines(input []byte, fn func(line string) error) error {
	for _, line := range strings.Split(string(input), "\n") {
		if line == "" {
			continue
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return nil
}

// parsePoint parses a comma-separated float vector.
func parsePoint(line string, dim int) ([]float64, error) {
	parts := strings.Split(line, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("apps: point %.40q has %d dims, want %d", line, len(parts), dim)
	}
	p := make([]float64, dim)
	for j, s := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("apps: bad coordinate %q: %w", s, err)
		}
		p[j] = v
	}
	return p, nil
}

// legacyKMeansMap assigns each point to its nearest centroid and emits one
// partial (sum, count) accumulator per centroid per block — local
// aggregation keeps shuffle volume tiny, which is why the paper's k-means
// iteration outputs are only ~1.7 KB.
func legacyKMeansMap(params mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	k, err := strconv.Atoi(params.Get("k"))
	if err != nil || k < 1 {
		return fmt.Errorf("apps: kmeans: bad k %q", params.Get("k"))
	}
	dim, err := strconv.Atoi(params.Get("dim"))
	if err != nil || dim < 1 {
		return fmt.Errorf("apps: kmeans: bad dim %q", params.Get("dim"))
	}
	centroids, err := decodeMat(params["centroids"], k, dim)
	if err != nil {
		return fmt.Errorf("apps: kmeans: %w", err)
	}
	// acc[c] holds sum vector followed by count.
	acc := make([][]float64, k)
	err = legacySplitLines(input, func(line string) error {
		p, err := parsePoint(line, dim)
		if err != nil {
			return err
		}
		best, bestD := 0, sqDist(p, centroids[0])
		for c := 1; c < k; c++ {
			if d := sqDist(p, centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		if acc[best] == nil {
			acc[best] = make([]float64, dim+1)
		}
		addVec(acc[best][:dim], p)
		acc[best][dim]++
		return nil
	})
	if err != nil {
		return err
	}
	for c, a := range acc {
		if a == nil {
			continue
		}
		if err := emit("c"+strconv.Itoa(c), encodeVec(a)); err != nil {
			return err
		}
	}
	return nil
}

// legacyPageRankMap distributes each node's current rank over its out-edges.
// Ranks arrive as a "ranks" parameter ("node rank" lines); missing nodes
// start at 1/N.
func legacyPageRankMap(params mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	n, err := strconv.ParseFloat(params.Get("n"), 64)
	if err != nil || n <= 0 {
		return fmt.Errorf("apps: pagerank: bad node count %q", params.Get("n"))
	}
	ranks, err := parseRanks(params.Get("ranks"))
	if err != nil {
		return err
	}
	return legacySplitLines(input, func(line string) error {
		fields := strings.Fields(line)
		src := fields[0]
		rank, ok := ranks[src]
		if !ok {
			rank = 1 / n
		}
		// Emitting the source with zero contribution keeps dangling and
		// unreferenced nodes alive in the output.
		if err := emit(src, []byte("0")); err != nil {
			return err
		}
		dsts := fields[1:]
		if len(dsts) == 0 {
			return nil
		}
		share := strconv.FormatFloat(rank/float64(len(dsts)), 'g', 17, 64)
		for _, dst := range dsts {
			if err := emit(dst, []byte(share)); err != nil {
				return err
			}
		}
		return nil
	})
}

// legacyLogRegMap computes each block's gradient contribution for logistic
// regression with ±1 labels, emitting one accumulated (gradient, count)
// vector per block.
func legacyLogRegMap(params mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	dim, err := strconv.Atoi(params.Get("dim"))
	if err != nil || dim < 1 {
		return fmt.Errorf("apps: logreg: bad dim %q", params.Get("dim"))
	}
	w, err := decodeVec(params["weights"])
	if err != nil {
		return fmt.Errorf("apps: logreg: %w", err)
	}
	if len(w) != dim {
		return fmt.Errorf("apps: logreg: weights have %d dims, want %d", len(w), dim)
	}
	grad := make([]float64, dim+1)
	err = legacySplitLines(input, func(line string) error {
		parts := strings.SplitN(line, " ", 2)
		if len(parts) != 2 {
			return fmt.Errorf("apps: logreg: malformed point %.40q", line)
		}
		y, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return err
		}
		x, err := parsePoint(parts[1], dim)
		if err != nil {
			return err
		}
		dot := 0.0
		for j := range x {
			dot += w[j] * x[j]
		}
		// d/dw of log(1+exp(-y w·x)) = -y x σ(-y w·x)
		coef := -y * sigmoid(-y*dot)
		for j := range x {
			grad[j] += coef * x[j]
		}
		grad[dim]++
		return nil
	})
	if err != nil {
		return err
	}
	return emit("grad", encodeVec(grad))
}
