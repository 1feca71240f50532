package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBPPRSmoke(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-task", "BPPR", "-exp", "3", "-workload", "24"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"training BPPR on DBLP", "M*(W)", "optimized schedule for workload 24"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunMSSPSmoke(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-task", "MSSP", "-exp", "3", "-workload", "16"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "optimized schedule for workload 16") {
		t.Fatalf("missing schedule line in output:\n%s", sb.String())
	}
}

func TestRunAdaptiveWritesReport(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	var sb strings.Builder
	err := run([]string{
		"-task", "BPPR", "-exp", "3", "-workload", "24",
		"-adaptive", "-report", report,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "adaptive run:") || !strings.Contains(out, "predicted") {
		t.Fatalf("missing adaptive summary in output:\n%s", out)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema   string `json:"schema"`
		Adaptive *struct {
			Predictions []json.RawMessage `json:"predictions"`
		} `json:"adaptive"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema == "" {
		t.Fatal("report missing schema")
	}
	if rep.Adaptive == nil || len(rep.Adaptive.Predictions) == 0 {
		t.Fatal("adaptive report section missing or empty")
	}
}

func TestRunRejectsUnknownTask(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-task", "NOPE"}, &sb); err == nil {
		t.Fatal("want error for unknown task")
	}
}

// TestRunRejectsInvalidJobs: a job that cannot be scheduled is an error
// returned by run before training, never a panic and never a printed
// schedule.
func TestRunRejectsInvalidJobs(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "0", "-evaluate"},
		{"-workload", "-5", "-evaluate"},
		{"-machines", "0"},
		{"-machines", "-2"},
		{"-task", "PageRank"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%v: want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result:\n%s", args, out.String())
		}
	}
}
