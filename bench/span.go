package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request (0 for set-up spans); Parent is the ID of the span that
// caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(name string, parent, request int, start, end time.Time) int {
	id := r.begin(name, parent, request, start)
	r.end(id, end)
	return id
}

// begin opens a span, so that spans recorded while it runs can name it
// as their parent; end closes it.
func (r *recorder) begin(name string, parent, request int, start time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartNS: r.since(start),
	})
	return id
}

func (r *recorder) end(id int, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = r.since(end)
}

// timed runs fn as a span and returns the span's ID and duration.
func (r *recorder) timed(name string, parent, request int, fn func(id int) error) (int, time.Duration, error) {
	start := time.Now()
	id := r.begin(name, parent, request, start)
	err := fn(id)
	end := time.Now()
	r.end(id, end)
	return id, end.Sub(start), err
}

// stage is one step of a call that reports its steps as durations.
type stage struct {
	name string
	d    time.Duration
}

// layStages records the stages of one call as spans under parent.
// core.Trace and FanoutTrace carry durations, not timestamps, so the
// stages are laid end to end from the start of the call (a stage that
// took no time is left out). The request's spans whose name starts with
// adoptPrefix and whose parent is adoptFrom — the he.<op> or
// cluster.http spans recorded while the call ran — move under the stage
// they started in.
func (r *recorder) layStages(parent, request int, start time.Time, adoptFrom int, adoptPrefix string, stages []stage) {
	if r == nil {
		return
	}
	at := start
	for _, st := range stages {
		if st.d == 0 {
			continue
		}
		end := at.Add(st.d)
		id := r.add(st.name, parent, request, at, end)
		lo, hi := r.since(at), r.since(end)
		r.mu.Lock()
		for i := range r.spans {
			s := &r.spans[i]
			if s.Request == request && s.Parent == adoptFrom && strings.HasPrefix(s.Name, adoptPrefix) && s.StartNS >= lo && s.StartNS < hi {
				s.Parent = id
			}
		}
		r.mu.Unlock()
		at = end
	}
}

// since is t as nanoseconds on the recorder's clock.
func (r *recorder) since(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// selfByName sums self time over spans of the same name, in ms.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}
