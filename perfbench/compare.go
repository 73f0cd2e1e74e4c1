package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics
}

// resultSet maps workload → metric → one value per run, in run order.
type resultSet map[string]map[string][]float64

// compareMain is the offline comparator. A result set is a directory
// holding <workload>/<run>.out files, each ending in the benchmark's
// JSON line (sweep.sh writes this layout). With one set it prints each
// metric's median, quartiles and spread against the metric's bound; with
// two (parent first) it also gives a verdict per workload × metric:
//
//   - better: the change wins at least 9 of 10 run pairs (ties count
//     for neither) and the medians differ by more than the parent's
//     quartile distance;
//   - worse: an end-to-end median is worse than the parent's by more
//     than the metric's bound, or a per-layer metric loses 9 of 10 pairs
//     by more than the parent's quartile distance;
//   - same: an end-to-end median within its bound;
//   - unresolved: the spread of either side exceeds the bound (unless
//     every run of the change beats every run of the parent), or a
//     per-layer metric that is neither better nor worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metrics' direction and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] <parent-dir> [<change-dir>]")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	var sets []resultSet
	for _, dir := range fs.Args() {
		s, err := loadResults(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 1
		}
		sets = append(sets, s)
	}
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	workloadNames := make([]string, 0, len(sets[0]))
	for w := range sets[0] {
		workloadNames = append(workloadNames, w)
	}
	slices.Sort(workloadNames)
	if len(sets) == 1 {
		fmt.Printf("%-15s %-36s %5s %14s %14s %14s %8s %6s\n", "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound")
	} else {
		fmt.Printf("%-15s %-36s %5s %14s %14s %14s %14s %14s %14s %8s  %s\n", "workload", "metric", "pairs",
			"parent.med", "parent.q1", "parent.q3", "change.med", "change.q1", "change.q3", "delta", "verdict")
	}
	for _, w := range workloadNames {
		for _, m := range metrics {
			a := sets[0][w][m.Name]
			if len(a) == 0 {
				continue
			}
			qa := quartiles(a)
			if len(sets) == 1 {
				flagged := ""
				if m.Bound > 0 && spreadOf(qa) >= m.Bound/3 {
					flagged = "  >= bound/3"
				}
				fmt.Printf("%-15s %-36s %5d %14.6g %14.6g %14.6g %8.4f %6.3g%s\n", w, m.Name, len(a), qa[1], qa[0], qa[2], spreadOf(qa), m.Bound, flagged)
				continue
			}
			b := sets[1][w][m.Name]
			if len(b) == 0 {
				fmt.Printf("%-15s %-36s missing in the change's results\n", w, m.Name)
				continue
			}
			qb := quartiles(b)
			delta := (qb[1] - qa[1]) / math.Abs(qa[1])
			fmt.Printf("%-15s %-36s %5d %14.6g %14.6g %14.6g %14.6g %14.6g %14.6g %+7.2f%%  %s\n", w, m.Name, min(len(a), len(b)),
				qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*delta, verdict(m, a, b))
		}
	}
	return 0
}

func loadResults(dir string) (resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.out"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no <workload>/<run>.out files", dir)
	}
	slices.Sort(files)
	set := resultSet{}
	for _, f := range files {
		line, err := lastLine(f)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		w := filepath.Base(filepath.Dir(f))
		if set[w] == nil {
			set[w] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			set[w][name] = append(set[w][name], m.Value)
		}
	}
	return set, nil
}

func lastLine(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	last := ""
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	return last, sc.Err()
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(xs, n=4) (the exclusive method) gives them.
func quartiles(xs []float64) [3]float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// spreadOf is the quartile distance as a share of the median.
func spreadOf(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }

func verdict(m specMetric, a, b []float64) string {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	n := min(len(a), len(b))
	wins, losses := 0, 0
	for i := range n {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	qa, qb := quartiles(a), quartiles(b)
	apart := math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]
	if 10*wins >= 9*n && apart && better(qb[1], qa[1]) {
		return "better"
	}
	if m.Bound == 0 {
		if 10*losses >= 9*n && apart && better(qa[1], qb[1]) {
			return "worse"
		}
		return "unresolved"
	}
	if spreadOf(qa) > m.Bound || spreadOf(qb) > m.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && better(x, y)
			}
		}
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	worseBy := (qb[1] - qa[1]) / math.Abs(qa[1])
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	if worseBy > m.Bound {
		return "worse"
	}
	return "same"
}
