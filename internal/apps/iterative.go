package apps

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"eclipsemr/internal/mapreduce"
)

// ---------------------------------------------------------------------
// k-means
// ---------------------------------------------------------------------

// kmeansMap assigns each point to its nearest centroid and emits one
// partial (sum, count) accumulator per centroid per block — local
// aggregation keeps shuffle volume tiny, which is why the paper's k-means
// iteration outputs are only ~1.7 KB.
func kmeansMap(params mapreduce.Params, split any, emit mapreduce.Emit) error {
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
	pts, err := points(KMeans, split, dim)
	if err != nil {
		return err
	}
	// acc[c] holds sum vector followed by count.
	acc := make([][]float64, k)
	for off := 0; off < len(pts.vals); off += dim {
		p := pts.vals[off : off+dim]
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

// kmeansReduce merges the partial accumulators of one centroid. It emits
// the merged accumulator (not the mean) so it can double as the map-side
// combiner; the driver divides by the count.
func kmeansReduce(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	var acc []float64
	for _, v := range values {
		part, err := decodeVec(v)
		if err != nil {
			return fmt.Errorf("apps: kmeans reduce %s: %w", key, err)
		}
		if acc == nil {
			acc = make([]float64, len(part))
		}
		if len(part) != len(acc) {
			return fmt.Errorf("apps: kmeans reduce %s: accumulator length mismatch", key)
		}
		addVec(acc, part)
	}
	return emit(key, encodeVec(acc))
}

// KMeansResult reports one k-means run.
type KMeansResult struct {
	Centroids [][]float64
	// Shifts holds the max centroid movement per iteration.
	Shifts []float64
	// IterationTimes holds the wall-clock duration of each iteration.
	IterationTimes []time.Duration
	// Results holds each iteration's raw job result.
	Results []mapreduce.Result
}

// RunKMeans executes `iters` Lloyd iterations over a points file. Initial
// centroids seed from the first k distinct emitted centroids of a
// caller-provided start matrix. cacheOutputs stores iteration outputs in
// oCache as the paper's iterative experiments do.
func RunKMeans(r Runner, input, user string, initial [][]float64, iters int, cacheOutputs bool) (KMeansResult, error) {
	if len(initial) == 0 {
		return KMeansResult{}, fmt.Errorf("apps: kmeans needs initial centroids")
	}
	k, dim := len(initial), len(initial[0])
	centroids := make([][]float64, k)
	for i := range centroids {
		centroids[i] = append([]float64(nil), initial[i]...)
	}
	var out KMeansResult
	for it := 0; it < iters; it++ {
		began := time.Now()
		spec := mapreduce.JobSpec{
			ID:     fmt.Sprintf("kmeans-%s-it%d", input, it),
			App:    KMeans,
			Inputs: []string{input},
			User:   user,
			Params: mapreduce.Params{
				"k":         []byte(strconv.Itoa(k)),
				"dim":       []byte(strconv.Itoa(dim)),
				"centroids": encodeMat(centroids),
			},
			CacheOutputs: cacheOutputs,
		}
		res, err := r.Run(spec)
		if err != nil {
			return out, fmt.Errorf("apps: kmeans iteration %d: %w", it, err)
		}
		kvs, err := r.Collect(res, user)
		if err != nil {
			return out, err
		}
		maxShift := 0.0
		for _, kv := range kvs {
			c, err := strconv.Atoi(strings.TrimPrefix(kv.Key, "c"))
			if err != nil || c < 0 || c >= k {
				return out, fmt.Errorf("apps: kmeans: bad centroid key %q", kv.Key)
			}
			acc, err := decodeVec(kv.Value)
			if err != nil {
				return out, err
			}
			count := acc[dim]
			if count == 0 {
				continue
			}
			next := make([]float64, dim)
			for j := 0; j < dim; j++ {
				next[j] = acc[j] / count
			}
			if d := sqDist(next, centroids[c]); d > maxShift {
				maxShift = d
			}
			centroids[c] = next
		}
		out.Shifts = append(out.Shifts, maxShift)
		out.IterationTimes = append(out.IterationTimes, time.Since(began))
		out.Results = append(out.Results, res)
	}
	out.Centroids = centroids
	return out, nil
}

// ---------------------------------------------------------------------
// page rank
// ---------------------------------------------------------------------

const (
	pageRankDamping = 0.85
)

// pageRankMap distributes each node's current rank over its out-edges.
// Ranks arrive as a "ranks" parameter ("node rank" lines); missing nodes
// start at 1/N.
func pageRankMap(params mapreduce.Params, split any, emit mapreduce.Emit) error {
	n, err := strconv.ParseFloat(params.Get("n"), 64)
	if err != nil || n <= 0 {
		return fmt.Errorf("apps: pagerank: bad node count %q", params.Get("n"))
	}
	ranks, err := parseRanks(params.Get("ranks"))
	if err != nil {
		return err
	}
	g, ok := split.(*graphSplit)
	if !ok {
		return fmt.Errorf("apps: pagerank: split is a %T", split)
	}
	var share []byte
	first := uint32(0)
	for _, end := range g.lineEnd {
		src := g.name(first)
		rank, ok := ranks[src]
		if !ok {
			rank = 1 / n
		}
		// Emitting the source with zero contribution keeps dangling and
		// unreferenced nodes alive in the output.
		if err := emit(src, zero); err != nil {
			return err
		}
		if dsts := end - first - 1; dsts > 0 {
			share = strconv.AppendFloat(share[:0], rank/float64(dsts), 'g', 17, 64)
			for i := first + 1; i < end; i++ {
				if err := emit(g.name(i), share); err != nil {
					return err
				}
			}
		}
		first = end
	}
	return nil
}

var zero = []byte("0")

// pageRankReduce applies the damped update rule.
func pageRankReduce(params mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	n, err := strconv.ParseFloat(params.Get("n"), 64)
	if err != nil || n <= 0 {
		return fmt.Errorf("apps: pagerank: bad node count %q", params.Get("n"))
	}
	sum := 0.0
	for _, v := range values {
		x, err := strconv.ParseFloat(string(v), 64)
		if err != nil {
			return fmt.Errorf("apps: pagerank: bad contribution %q: %w", v, err)
		}
		sum += x
	}
	rank := (1-pageRankDamping)/n + pageRankDamping*sum
	return emit(key, []byte(strconv.FormatFloat(rank, 'g', 17, 64)))
}

// parseRanks parses "node rank" lines.
func parseRanks(s string) (map[string]float64, error) {
	ranks := make(map[string]float64)
	for _, line := range strings.Split(s, "\n") {
		if line == "" {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			return nil, fmt.Errorf("apps: pagerank: malformed rank line %q", line)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, err
		}
		ranks[parts[0]] = v
	}
	return ranks, nil
}

func formatRanks(ranks map[string]float64) string {
	var b strings.Builder
	for node, r := range ranks {
		b.WriteString(node)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(r, 'g', 17, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

// PageRankResult reports one page rank run.
type PageRankResult struct {
	Ranks          map[string]float64
	IterationTimes []time.Duration
	Results        []mapreduce.Result
}

// RunPageRank executes `iters` power iterations over an adjacency-list
// file with n nodes.
func RunPageRank(r Runner, input, user string, n, iters int, cacheOutputs bool) (PageRankResult, error) {
	ranks := make(map[string]float64)
	var out PageRankResult
	for it := 0; it < iters; it++ {
		began := time.Now()
		spec := mapreduce.JobSpec{
			ID:     fmt.Sprintf("pagerank-%s-it%d", input, it),
			App:    PageRank,
			Inputs: []string{input},
			User:   user,
			Params: mapreduce.Params{
				"n":     []byte(strconv.Itoa(n)),
				"ranks": []byte(formatRanks(ranks)),
			},
			CacheOutputs: cacheOutputs,
		}
		res, err := r.Run(spec)
		if err != nil {
			return out, fmt.Errorf("apps: pagerank iteration %d: %w", it, err)
		}
		kvs, err := r.Collect(res, user)
		if err != nil {
			return out, err
		}
		next := make(map[string]float64, len(kvs))
		for _, kv := range kvs {
			v, err := strconv.ParseFloat(string(kv.Value), 64)
			if err != nil {
				return out, fmt.Errorf("apps: pagerank: bad rank %q: %w", kv.Value, err)
			}
			next[kv.Key] = v
		}
		ranks = next
		out.IterationTimes = append(out.IterationTimes, time.Since(began))
		out.Results = append(out.Results, res)
	}
	out.Ranks = ranks
	return out, nil
}

// ---------------------------------------------------------------------
// logistic regression
// ---------------------------------------------------------------------

// logRegMap computes each block's gradient contribution for logistic
// regression with ±1 labels, emitting one accumulated (gradient, count)
// vector per block.
func logRegMap(params mapreduce.Params, split any, emit mapreduce.Emit) error {
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
	pts, err := points(LogReg, split, dim+1)
	if err != nil {
		return err
	}
	grad := make([]float64, dim+1)
	for off := 0; off < len(pts.vals); off += dim + 1 {
		y, x := pts.vals[off], pts.vals[off+1:off+1+dim]
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
	}
	return emit("grad", encodeVec(grad))
}

// logRegReduce merges partial gradients.
func logRegReduce(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	return kmeansReduce(nil, key, values, emit)
}

// LogRegResult reports one logistic regression run.
type LogRegResult struct {
	Weights        []float64
	IterationTimes []time.Duration
	Results        []mapreduce.Result
}

// RunLogReg executes `iters` gradient-descent iterations with learning
// rate lr over a labeled-points file.
func RunLogReg(r Runner, input, user string, dim, iters int, lr float64, cacheOutputs bool) (LogRegResult, error) {
	out := LogRegResult{Weights: make([]float64, dim)}
	for it := 0; it < iters; it++ {
		step, err := runLogRegFrom(r, input, user, out.Weights, it, lr, cacheOutputs)
		if err != nil {
			return out, err
		}
		out.Weights = step.Weights
		out.IterationTimes = append(out.IterationTimes, step.IterationTimes...)
		out.Results = append(out.Results, step.Results...)
	}
	return out, nil
}

// runLogRegFrom executes one gradient-descent iteration starting from w.
func runLogRegFrom(r Runner, input, user string, w []float64, it int, lr float64, cacheOutputs bool) (LogRegResult, error) {
	dim := len(w)
	began := time.Now()
	spec := mapreduce.JobSpec{
		ID:     fmt.Sprintf("logreg-%s-it%d", input, it),
		App:    LogReg,
		Inputs: []string{input},
		User:   user,
		Params: mapreduce.Params{
			"dim":     []byte(strconv.Itoa(dim)),
			"weights": encodeVec(w),
		},
		CacheOutputs: cacheOutputs,
	}
	var out LogRegResult
	res, err := r.Run(spec)
	if err != nil {
		return out, fmt.Errorf("apps: logreg iteration %d: %w", it, err)
	}
	kvs, err := r.Collect(res, user)
	if err != nil {
		return out, err
	}
	if len(kvs) != 1 || kvs[0].Key != "grad" {
		return out, fmt.Errorf("apps: logreg: expected one grad key, got %d pairs", len(kvs))
	}
	acc, err := decodeVec(kvs[0].Value)
	if err != nil {
		return out, err
	}
	next := append([]float64(nil), w...)
	if count := acc[dim]; count > 0 {
		for j := 0; j < dim; j++ {
			next[j] -= lr * acc[j] / count
		}
	}
	out.Weights = next
	out.IterationTimes = append(out.IterationTimes, time.Since(began))
	out.Results = append(out.Results, res)
	return out, nil
}
