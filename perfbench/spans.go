package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"parcolor"
)

// span is one timed interval of the traced run. Times are offsets from the
// start of the run. The tree is run → workload → instance (or request, or
// standalone layer call), with the solver's engine events as children of
// the instance span they occurred in.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// recorder keeps every span of a traced run in memory. It is also the
// parcolor.Tracer attached to traced solvers: each engine exit event
// becomes a child span of the currently open instance span (events that
// arrive while no instance is open, such as warm-up solves, are dropped).
// Safe for concurrent use: sparsify bins emit from several goroutines.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	target int // instance span engine events attach to; 0 drops them
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// open starts a span now and returns its id.
func (r *recorder) open(parent int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(r.origin)})
	return id
}

// close ends span id now, attaching attrs.
func (r *recorder) close(id int, attrs map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = time.Since(r.origin)
	r.spans[id-1].Attrs = attrs
}

// add records a finished span with explicit start and end times.
func (r *recorder) add(parent int, name string, start, end time.Time, attrs map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin), Attrs: attrs,
	})
}

// collect routes engine events into span id until the returned function is
// called.
func (r *recorder) collect(id int) (stop func()) {
	r.mu.Lock()
	r.target = id
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.target = 0
		r.mu.Unlock()
	}
}

// PhaseEnter implements parcolor.Tracer; exit events carry the elapsed time.
func (r *recorder) PhaseEnter(parcolor.TraceEvent) {}

// PhaseExit implements parcolor.Tracer.
func (r *recorder) PhaseExit(e parcolor.TraceEvent) {
	end := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.target == 0 {
		return
	}
	r.spans = append(r.spans, span{
		ID:     len(r.spans) + 1,
		Parent: r.target,
		Name:   e.Engine + "/" + e.Phase,
		Start:  end - e.Elapsed,
		End:    end,
		Attrs: map[string]int64{
			"round":        int64(e.Round),
			"participants": int64(e.Participants),
			"seed_evals":   int64(e.SeedEvals),
			"colored":      int64(e.Colored),
			"deferred":     int64(e.Deferred),
		},
	})
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// get returns span id.
func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// write stores every span as JSON in dir/<workload>-seed<seed>.json.
func (r *recorder) write(dir, workload string, seed uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(r.spans), path)
	return nil
}

// covered is the wall time covered by the union of the spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// named filters spans by a predicate on the name.
func named(spans []span, keep func(string) bool) []span {
	var out []span
	for _, s := range spans {
		if keep(s.Name) {
			out = append(out, s)
		}
	}
	return out
}

// sumAttr adds attribute key over the spans.
func sumAttr(spans []span, key string) int64 {
	var t int64
	for _, s := range spans {
		t += s.Attrs[key]
	}
	return t
}
