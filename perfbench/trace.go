package main

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the benchmark into the system: name,
// start, end, the span that caused it and the request it belongs to.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNS int64  `json:"self_ns"`
}

// tracer keeps spans in memory. Each driving goroutine records into its
// own recorder; flush folds a round's spans into per-name aggregates
// (with self time) and keeps a bounded sample of raw spans for the
// trace file, so memory stays bounded however long the run.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu   sync.Mutex
	recs []*recorder

	agg    map[string]*spanAgg
	sample []span // the first sampleCap spans, for the trace file
	rng    *rand.Rand
}

// spanAgg summarises every span of one name: count, total and self
// time, and a uniform reservoir of durations and self times.
type spanAgg struct {
	count, totalNS, selfNS int64
	durs, selfs            []int64
}

const (
	reservoirCap = 8192
	sampleCap    = 4000
)

func newTracer(seed int64) *tracer {
	return &tracer{
		epoch: time.Now(),
		agg:   make(map[string]*spanAgg),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// recorder returns a new recorder bound to t; a nil tracer gives a nil
// recorder, whose methods do nothing.
func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{t: t}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// recorder appends spans for one goroutine, or for several under its
// mutex (the query goroutines share one).
type recorder struct {
	t     *tracer
	mu    sync.Mutex
	spans []span
}

// spanRef identifies an open span: its index in the recorder and its id.
type spanRef struct {
	i  int
	id int64
}

func (r *recorder) begin(name string, parent spanRef, req int64) spanRef {
	if r == nil {
		return spanRef{}
	}
	id := r.t.nextID.Add(1)
	now := time.Since(r.t.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent.id, Req: req, Start: now})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return spanRef{i: i, id: id}
}

// end closes the span and returns its duration in nanoseconds.
func (r *recorder) end(s spanRef) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t.epoch).Nanoseconds()
	r.mu.Lock()
	sp := &r.spans[s.i]
	sp.End = now
	d := now - sp.Start
	r.mu.Unlock()
	return d
}

// flush folds every recorder's spans into the aggregates and empties
// the recorders. The caller guarantees no span is open or being
// recorded.
func (t *tracer) flush() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, r := range t.recs {
		all = append(all, r.spans...)
		r.spans = r.spans[:0]
	}
	byID := make(map[int64]int, len(all))
	for i := range all {
		byID[all[i].ID] = i
	}
	// Self time: a span's duration minus the part of it its children
	// cover (children's intervals are merged and clipped to the parent).
	kids := make(map[int64][]int)
	for i := range all {
		if _, ok := byID[all[i].Parent]; ok {
			kids[all[i].Parent] = append(kids[all[i].Parent], i)
		}
	}
	for i := range all {
		s := &all[i]
		if s.End < s.Start {
			s.End = s.Start
		}
		covered := int64(0)
		if ks := kids[s.ID]; len(ks) > 0 {
			slices.SortFunc(ks, func(a, b int) int { return cmp.Compare(all[a].Start, all[b].Start) })
			cur0, cur1 := int64(-1), int64(-1)
			for _, k := range ks {
				a, b := max(all[k].Start, s.Start), min(all[k].End, s.End)
				if b <= a {
					continue
				}
				if a > cur1 {
					covered += cur1 - cur0
					cur0, cur1 = a, b
				} else if b > cur1 {
					cur1 = b
				}
			}
			covered += cur1 - cur0
		}
		dur := s.End - s.Start
		s.SelfNS = dur - covered
		a := t.agg[s.Name]
		if a == nil {
			a = &spanAgg{}
			t.agg[s.Name] = a
		}
		a.count++
		a.totalNS += dur
		a.selfNS += s.SelfNS
		if len(a.durs) < reservoirCap {
			a.durs = append(a.durs, dur)
			a.selfs = append(a.selfs, s.SelfNS)
		} else if j := t.rng.Int63n(a.count); j < reservoirCap {
			a.durs[j], a.selfs[j] = dur, s.SelfNS
		}
		if len(t.sample) < sampleCap {
			t.sample = append(t.sample, *s)
		}
	}
}

// spanSummary is the per-name line of the trace file.
type spanSummary struct {
	Count     int64   `json:"count"`
	TotalMS   float64 `json:"total_ms"`
	SelfMS    float64 `json:"self_ms"`
	DurP50US  float64 `json:"dur_p50_us"`
	DurP99US  float64 `json:"dur_p99_us"`
	SelfP50US float64 `json:"self_p50_us"`
	SelfP99US float64 `json:"self_p99_us"`
}

func (t *tracer) summary() map[string]spanSummary {
	out := make(map[string]spanSummary, len(t.agg))
	for name, a := range t.agg {
		out[name] = spanSummary{
			Count: a.count, TotalMS: float64(a.totalNS) / 1e6, SelfMS: float64(a.selfNS) / 1e6,
			DurP50US: nsQuantile(a.durs, 0.5, 1e3), DurP99US: nsQuantile(a.durs, 0.99, 1e3),
			SelfP50US: nsQuantile(a.selfs, 0.5, 1e3), SelfP99US: nsQuantile(a.selfs, 0.99, 1e3),
		}
	}
	return out
}
