package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"copse"
	"copse/internal/cluster"
	"copse/internal/synth"
)

// TestClusterSmoke is the multi-process cluster smoke: it builds the
// copse-serve binary, shards a compiled forest two ways, spawns two
// worker processes plus a gateway on loopback, and checks that a
// sharded BGV classify through real HTTP agrees with plain forest
// evaluation. It then kills one worker (routing degrades within a
// probe interval) and SIGTERMs the survivors (graceful shutdown exits
// cleanly).
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster smoke in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "copse-serve")
	build := exec.Command("go", "build", "-o", bin, "copse/cmd/copse-serve")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Compile and shard the forest in-process; the worker processes only
	// ever see the artifacts, like a real deployment.
	forest, err := synth.Generate(synth.ForestSpec{
		NumFeatures:     3,
		NumLabels:       3,
		Precision:       4,
		MaxDepth:        3,
		BranchesPerTree: []int{5, 3, 6, 3, 4},
		Seed:            51,
	})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := copse.ShardForest(compiled, 2)
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "forest.manifest.json")
	writeFile(t, manifestPath, func(w io.Writer) error { return copse.WriteManifest(w, manifest) })
	shardPaths := make([]string, len(shards))
	for i, s := range shards {
		shardPaths[i] = filepath.Join(dir, fmt.Sprintf("forest.shard%d.copse", i))
		s := s
		writeFile(t, shardPaths[i], func(w io.Writer) error { return copse.WriteArtifact(w, s) })
	}

	ports := []int{freePort(t), freePort(t), freePort(t)}
	workerURL := func(i int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[i]) }

	procs := make([]*exec.Cmd, 0, 3)
	for i := 0; i < 2; i++ {
		procs = append(procs, startProc(t, bin,
			"-worker",
			"-listen", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-seed", "42",
			"-manifest", "forest="+manifestPath,
			"-shards", "forest="+shardPaths[i],
			"-max-inflight", "2",
			"-shedqueue", "64",
		))
	}
	for i := 0; i < 2; i++ {
		waitHTTP(t, workerURL(i)+"/healthz", 90*time.Second)
	}
	gw := startProc(t, bin,
		"-gateway",
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[2]),
		"-workers", workerURL(0)+","+workerURL(1),
		"-probe", "200ms",
		"-breaker", "3",
		"-retries", "2",
	)
	procs = append(procs, gw)
	gwURL := fmt.Sprintf("http://127.0.0.1:%d", ports[2])
	waitHTTP(t, gwURL+"/healthz", 30*time.Second)
	waitModel(t, gwURL, "forest", true, 30*time.Second)

	// A sharded classify through the gateway matches plain evaluation.
	queries := [][]uint64{{3, 9, 1}, {15, 0, 7}}
	body, _ := json.Marshal(map[string]any{"model": "forest", "queries": queries})
	resp, err := http.Post(gwURL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: HTTP %d: %s", resp.StatusCode, raw)
	}
	var cr struct {
		Results []struct {
			Label   int   `json:"label"`
			PerTree []int `json:"perTree"`
		} `json:"results"`
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("classify response: %v\n%s", err, raw)
	}
	if cr.Shards != 2 || len(cr.Results) != len(queries) {
		t.Fatalf("classify fanned to %d shards with %d results: %s", cr.Shards, len(cr.Results), raw)
	}
	for i, q := range queries {
		want := forest.Classify(q)
		if !reflect.DeepEqual(cr.Results[i].PerTree, want) {
			t.Errorf("query %d: gateway perTree %v, plain eval %v", i, cr.Results[i].PerTree, want)
		}
	}

	// What the gateway fetched: parameters and public key, no secret or
	// switching key, a fraction of a megabyte.
	resp, err = http.Get(workerURL(0) + "/v1/cluster/keys")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	mat, err := cluster.DecodeKeyMaterial(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("key frame: %v", err)
	}
	if mat.Secret != nil || mat.Keys != nil || len(raw) >= 1<<20 {
		t.Errorf("gateway key frame: %d bytes, secret key %v, switching keys %v", len(raw), mat.Secret != nil, mat.Keys != nil)
	}
	t.Logf("gateway key frame: %d bytes", len(raw))

	// Kill worker 1 outright: the gateway must mark the model
	// unavailable within a couple of probe intervals.
	procs[1].Process.Kill()
	procs[1].Wait()
	waitModel(t, gwURL, "forest", false, 15*time.Second)

	// SIGTERM the survivors: graceful shutdown must exit 0.
	for _, p := range []*exec.Cmd{gw, procs[0]} {
		p.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range []*exec.Cmd{gw, procs[0]} {
		if err := waitProc(p, 30*time.Second); err != nil {
			t.Errorf("graceful shutdown: %v", err)
		}
	}
}

func writeFile(t *testing.T, path string, fill func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("%s %v output:\n%s", filepath.Base(bin), args[0], out.String())
		}
	})
	return cmd
}

func waitProc(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		cmd.Process.Kill()
		return fmt.Errorf("pid %d still running after %v", cmd.Process.Pid, timeout)
	}
}

func waitHTTP(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s not ready after %v", url, timeout)
}

// waitModel polls the gateway model list until the named model's
// availability matches want.
func waitModel(t *testing.T, gwURL, model string, want bool, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(gwURL + "/v1/models")
		if err == nil {
			var models []struct {
				Name      string `json:"name"`
				Available bool   `json:"available"`
			}
			err = json.NewDecoder(resp.Body).Decode(&models)
			resp.Body.Close()
			if err == nil {
				for _, m := range models {
					if m.Name == model && m.Available == want {
						return
					}
				}
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("model %q never became available=%v within %v", model, want, timeout)
}
