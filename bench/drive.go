package main

import (
	"context"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one attempted request.
type sample struct {
	latency time.Duration // closed loop: from send; open loop: from when it was due
	lag     time.Duration // open loop: how late the generator sent it
	queries int
	wrong   int // answers that differ from the plaintext forest
	err     error
	late    bool // open loop: latency over the workload's limit
	reply   *reply
	// end and cpuAtEnd are the wall clock and the process's CPU time when
	// the answer arrived.
	end      time.Time
	cpuAtEnd time.Duration
}

func (s sample) ok() bool { return s.err == nil && s.wrong == 0 && !s.late }

// window is what one measured stretch of traffic produced.
type window struct {
	samples []sample
	start   time.Time
	cpu0    time.Duration // process user+sys CPU at start
	elapsed time.Duration // start to the last answer (open loop: at least the schedule's length)
	// openLoop: a schedule, not the service, spaced the answers.
	openLoop bool
}

// extent bounds a stretch of traffic by time, by request count, or both
// (zero means unbounded; at least one must be set).
type extent struct {
	dur      time.Duration
	requests int
}

// drive runs the workload's traffic against sys and returns every
// attempted request. Inputs come from seed alone. rt is the traced
// cluster run's transport (nil otherwise): with it every request is
// recorded as spans. In-process passes are traced by the probe instead.
func drive(sys *system, seed uint64, ext extent, rt *countingTransport) *window {
	win := &window{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(s sample) {
		mu.Lock()
		win.samples = append(win.samples, s)
		mu.Unlock()
	}
	start := time.Now()
	win.start, win.cpu0 = start, cpuTime()
	var scheduleEnd time.Time // open loop only

	if sys.w.clients > 0 {
		var issued atomic.Int64
		for c := 0; c < sys.w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
				for ext.dur == 0 || time.Since(start) < ext.dur {
					n := int(issued.Add(1))
					if ext.requests > 0 && n > ext.requests {
						return
					}
					queries := randomQueries(rng, sys.forest, sys.requestBatch())
					record(sys.attempt(queries, time.Now(), n, rt))
				}
			}(c)
		}
	} else {
		dur := ext.dur
		if dur == 0 {
			dur = time.Duration(float64(ext.requests) / sys.w.rate * float64(time.Second))
		}
		due := arrivals(rand.New(rand.NewPCG(seed, 0xa221)), sys.w.rate, dur)
		if ext.requests > 0 && len(due) > ext.requests {
			due = due[:ext.requests]
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		win.openLoop = true
		scheduleEnd = start.Add(dur)
		for i, d := range due {
			time.Sleep(time.Until(start.Add(d)))
			lag := time.Since(start.Add(d))
			queries := randomQueries(rng, sys.forest, sys.requestBatch())
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := sys.attempt(queries, start.Add(d), i+1, rt)
				s.lag = lag
				s.late = s.latency > sys.w.limit
				record(s)
			}()
		}
	}
	wg.Wait()
	time.Sleep(time.Until(scheduleEnd)) // the offered rate is over the whole schedule
	win.elapsed = time.Since(start)
	return win
}

// attempt sends one request, times it from `from`, and checks every
// answer against the plaintext forest.
func (sys *system) attempt(queries [][]uint64, from time.Time, request int, rt *countingTransport) sample {
	var root int
	if rt != nil {
		root = rt.rec.begin("request", 0, request, from)
		rt.under(root, request)
	}
	rep, err := sys.request(context.Background(), queries)
	end := time.Now()
	s := sample{latency: end.Sub(from), queries: len(queries), reply: rep, err: err, end: end, cpuAtEnd: cpuTime()}
	if rt != nil {
		rt.rec.end(root, end)
		if err == nil {
			clusterSpans(rt.rec, root, request, from, end, rep.fanout)
		}
	}
	if err != nil {
		return s
	}
	if len(rep.answers) != len(queries) {
		s.wrong = len(queries)
		return s
	}
	for i, a := range rep.answers {
		if !check(sys.forest, queries[i], a) {
			s.wrong++
		}
	}
	return s
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in kB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// summary is a window reduced to the numbers the metrics are built from.
type summary struct {
	attempted, failed, wrong int
	okQueries                int
	latenciesMS              []float64 // of successful requests over the whole window, ascending
	firstErr                 error
	// latencyP50 (ms), throughput (correct queries/s) and cpuPerQuery (ms)
	// are those of the best of the window's stretches: see summarize.
	latencyP50, throughput, cpuPerQuery float64
}

// stretches is the share of a window's answers that makes one stretch:
// a tenth.
const stretches = 10

// samePass is the longest gap between two answers of one batched pass;
// passes, and a single client's answers, are at least 100 ms apart.
const samePass = 5 * time.Millisecond

// summarize reports, for each of latency, throughput and CPU per query,
// the best stretch of the window: the best run of consecutive answers
// holding a tenth of them. The host is shared: for tens of seconds at a
// time a neighbour slows every thread of this process by a quarter, which
// moves the median of a whole window whenever it covers more than half of
// it. Interference only ever adds time, so the stretch it touched least
// is the best estimate of what the program costs, and a slower program is
// slower in every stretch.
func (w *window) summarize() summary {
	var s summary
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].end.Before(w.samples[j].end) })
	for _, sm := range w.samples {
		s.attempted++
		s.wrong += sm.wrong
		if s.firstErr == nil {
			s.firstErr = sm.err
		}
		if !sm.ok() {
			s.failed++
			continue
		}
		s.okQueries += sm.queries
		s.latenciesMS = append(s.latenciesMS, ms(sm.latency))
	}
	s.latenciesMS = sortedCopy(s.latenciesMS)

	// A stretch runs from one cut to a later one, in the order the answers
	// arrived: from the answer before it to its own last answer. The
	// answers of one batched pass arrive together and stay together: a cut
	// between them would count the pass's time in one stretch and half its
	// answers in the next.
	cuts := []int{0} // a cut at i falls before sample i
	for i := 1; i <= len(w.samples); i++ {
		if i == len(w.samples) || w.samples[i].end.Sub(w.samples[i-1].end) >= samePass {
			cuts = append(cuts, i)
		}
	}
	need := max(len(w.samples)/stretches, 1)
	j := 0
	for _, a := range cuts {
		for j < len(cuts) && cuts[j]-a < need {
			j++
		}
		if j == len(cuts) {
			break
		}
		from, cpuFrom := w.start, w.cpu0
		if a > 0 {
			from, cpuFrom = w.samples[a-1].end, w.samples[a-1].cpuAtEnd
		}
		ok := 0
		var lat []float64
		for _, sm := range w.samples[a:cuts[j]] {
			if sm.ok() {
				ok += sm.queries
				lat = append(lat, ms(sm.latency))
			}
		}
		if ok == 0 {
			continue
		}
		last := w.samples[cuts[j]-1]
		if p50 := median(lat); s.latencyP50 == 0 || p50 < s.latencyP50 {
			s.latencyP50 = p50
		}
		if cpu := ms(last.cpuAtEnd-cpuFrom) / float64(ok); s.cpuPerQuery == 0 || cpu < s.cpuPerQuery {
			s.cpuPerQuery = cpu
		}
		s.throughput = max(s.throughput, float64(ok)/last.end.Sub(from).Seconds())
	}
	if w.openLoop && s.okQueries > 0 {
		// The schedule, not the service, spaces the answers: the offered
		// rate, and the CPU it costs, hold over the whole window only.
		s.throughput = float64(s.okQueries) / w.elapsed.Seconds()
		s.cpuPerQuery = ms(w.samples[len(w.samples)-1].cpuAtEnd-w.cpu0) / float64(s.okQueries)
	}
	return s
}
