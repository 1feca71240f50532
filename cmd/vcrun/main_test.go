package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRunRejectsInvalidJobs: every malformed job is an error returned by
// run, never a panic and never a printed result.
func TestRunRejectsInvalidJobs(t *testing.T) {
	for _, args := range [][]string{
		{"-task", "BPPR", "-workload", "4", "-batches", "0"},
		{"-task", "BKHS", "-workload", "4", "-k", "-1"},
		{"-task", "MSSP", "-workload", "0"},
		{"-task", "BKHS", "-workload", "4", "-k", "300"},
		{"-task", "PageRank", "-workload", "4"},
		{"-task", "MSSP", "-workload", "4", "-ooc", "-system", "GraphLab(async)"},
		{"-task", "MSSP", "-workload", "4", "-ooc", "-system", "Pregel+(mirror)"},
		{"-task", "MSSP", "-workload", "4", "-fault-plan", "crash:worker=1,step=5"},
	} {
		var out strings.Builder
		err := run(args, &out)
		if err == nil {
			t.Errorf("%v: want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result:\n%s", args, out.String())
		}
	}
}

// TestRunReportsUnfiredFaults: a BKHS job (k = 2) runs 3 supersteps, so a
// crash planned at step 5 never fires and the run says so, while a crash at
// step 2 recovers once and leaves nothing unfired.
func TestRunReportsUnfiredFaults(t *testing.T) {
	for _, c := range []struct {
		step, fault, recovered string
	}{
		{"5", "fault:     1 planned event(s) never fired (crash:worker=1,step=5)\n", "0 recoveries"},
		{"2", "", "1 recoveries"},
	} {
		var out strings.Builder
		plan := "crash:worker=1,step=" + c.step
		if err := run([]string{"-task", "BKHS", "-checkpoint-dir", t.TempDir(), "-fault-plan", plan}, &out); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		if !strings.Contains(got, "rounds:    3 ") || !strings.Contains(got, c.recovered) {
			t.Fatalf("%s: unexpected summary:\n%s", plan, got)
		}
		if c.fault == "" && strings.Contains(got, "fault:") || !strings.Contains(got, c.fault) {
			t.Errorf("%s: want fault line %q in:\n%s", plan, c.fault, got)
		}
	}
}

// TestRunPinnedOutputs pins every telemetry file of one GraphD job, so a
// change to job construction, the batch loop, the cost model or a writer
// that moves one byte fails here. Outputs carry only simulated time and
// are identical for every worker count; the digests are those of the
// default amd64 build (other targets may fuse floating-point operations).
func TestRunPinnedOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating point")
	}
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	var out strings.Builder
	err := run([]string{
		"-task", "MSSP", "-system", "GraphD", "-workload", "24", "-batches", "3",
		"-report", path("r.json"), "-events", path("e.jsonl"), "-trace", path("t.csv"),
		"-machine-trace", path("m.csv"), "-trace-out", path("s.json"),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rounds:    33 ") {
		t.Fatalf("unexpected summary:\n%s", out.String())
	}
	for name, want := range map[string]string{
		"r.json":  "e8f658688668f0c03be155b54da94c3dee0a6ccac6692344d41d8134256271c1",
		"e.jsonl": "c4defce902f676a2affaa46a2cb871f91c252153446141f8ea952eddbecb27d4",
		"t.csv":   "5bb7c200ee90fa680b003128ed59ff38ec9ae2d8a7312c8ccc459441d49237b1",
		"m.csv":   "056daa8ad225755bab36fc17ca5273bb715202a88a3df12840325a5252fe4586",
		"s.json":  "ae4e7f4fe59ecff7615fd61bc1d6a4491f735a5b8c6b422afacf5fa24a6950a6",
	} {
		raw, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}
