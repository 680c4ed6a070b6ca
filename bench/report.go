package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"copse/internal/ring"
)

// provenance heads every output: a number means nothing without the
// commit, the machine and the settings it was measured with.
type provenance struct {
	Commit     string   `json:"git_commit"`
	GoVersion  string   `json:"go_version"`
	CPUModel   string   `json:"cpu_model"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	RingKernel string   `json:"ring_kernel"` // avx2 or scalar-fused
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"window_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
	PerLayer   []metric `json:"per_layer"`
}

func newProvenance(seed uint64, seconds float64) provenance {
	return provenance{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		RingKernel: ring.KernelVariant(),
		Seed:       seed,
		Seconds:    seconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// gitCommit asks git; a checkout that is not a repository says so.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, found := strings.Cut(rest, ":"); found {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func (p provenance) print(w io.Writer) {
	fmt.Fprintf(w, "# commit %s, %s, %s, nproc %d, GOMAXPROCS %d, ring kernel %s\n",
		p.Commit, p.GoVersion, p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.RingKernel)
	fmt.Fprintf(w, "# seed %d, window %gs; end-to-end metrics (unit, better, bound):", p.Seed, p.Seconds)
	for _, m := range p.EndToEnd {
		fmt.Fprintf(w, " %s (%s, %s, %g)", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w)
}

// values collects one metric of one workload over the report's runs.
func (r report) values(workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if v, ok := run.Metrics[name]; ok && run.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// printTable prints the median of every metric, one row per workload
// (end-to-end) or one row per metric (per-layer: too many columns).
func (r report) printTable(w io.Writer, metrics []metric) {
	r.Provenance.print(w)
	attempted, failed := map[string]int{}, map[string]int{}
	for _, run := range r.Runs {
		attempted[run.Workload] += run.Attempted
		failed[run.Workload] += run.Failed
	}
	if len(metrics) <= len(endToEnd) {
		fmt.Fprintf(w, "%-16s", "workload")
		for _, m := range metrics {
			fmt.Fprintf(w, " %22s", m.Name+" ["+m.Unit+"]")
		}
		fmt.Fprintf(w, " %10s %7s\n", "attempted", "failed")
		for _, wl := range workloads {
			fmt.Fprintf(w, "%-16s", wl.Name)
			for _, m := range metrics {
				fmt.Fprintf(w, " %22.4f", median(r.values(wl.Name, m.Name)))
			}
			fmt.Fprintf(w, " %10d %7d\n", attempted[wl.Name], failed[wl.Name])
		}
		return
	}
	fmt.Fprintf(w, "%-36s %-9s", "metric", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %15s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, m := range metrics {
		fmt.Fprintf(w, "%-36s %-9s", m.Name, m.Unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %15.4f", median(r.values(wl.Name, m.Name)))
		}
		fmt.Fprintln(w)
	}
}

// Verdicts of -compare.
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, end-to-end metric) row of -compare.
type comparison struct {
	workload         string
	metric           metric
	baseMed, candMed float64
	spread           float64 // the wider of the two sides' run-to-run spreads
	verdict          string
}

// worsening is how much worse the candidate's median is than the
// base's, as a share of the base (negative: better).
func (c comparison) worsening() float64 {
	d := (c.candMed - c.baseMed) / c.baseMed
	if c.metric.Better == higher {
		return -d
	}
	return d
}

// compareReports judges every (workload, end-to-end metric) pair: the
// change regressed when its median is worse than the base's by more
// than the metric's bound; where either side's run-to-run spread is
// wider than the bound the pair is unresolved, not unchanged.
func compareReports(base, cand report) []comparison {
	var out []comparison
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := base.values(wl.Name, m.Name), cand.values(wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			c := comparison{workload: wl.Name, metric: m, baseMed: median(a), candMed: median(b), spread: max(spread(a), spread(b))}
			switch {
			case c.spread > m.Bound:
				c.verdict = verdictUnresolved
			case c.worsening() > m.Bound:
				c.verdict = verdictRegressed
			default:
				c.verdict = verdictWithin
			}
			out = append(out, c)
		}
	}
	return out
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bench: %s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per pair, each ratio with its base, and
// fails unless every pair is within its bound.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return errors.New("usage: bench -compare BASE.json CANDIDATE.json")
	}
	base, err := readReport(paths[0])
	if err != nil {
		return err
	}
	cand, err := readReport(paths[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base      %s: ", paths[0])
	base.Provenance.print(w)
	fmt.Fprintf(w, "candidate %s: ", paths[1])
	cand.Provenance.print(w)
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %22s %8s %6s  %s\n",
		"workload", "metric", "base median", "cand median", "cand/base", "spread", "bound", "verdict")
	bad := 0
	for _, c := range compareReports(base, cand) {
		ratio := fmt.Sprintf("%.4f (base %.4g %s)", c.candMed/c.baseMed, c.baseMed, c.metric.Unit)
		fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %22s %8.4f %6.2f  %s\n",
			c.workload, c.metric.Name, c.baseMed, c.candMed, ratio, c.spread, c.metric.Bound, c.verdict)
		if c.verdict != verdictWithin {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: %d pairs are not within their bound", bad)
	}
	return nil
}
