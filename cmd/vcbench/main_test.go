package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vcmt/internal/obs"
)

// TestRunWritesTablesAndTrace runs two quick experiments in fast mode: each
// -out file holds exactly the bytes printed for that experiment, and the
// -trace-out file is a valid trace with one span per experiment carrying
// its byte count.
func TestRunWritesTablesAndTrace(t *testing.T) {
	dir := t.TempDir()
	outDir := filepath.Join(dir, "tables")
	tracePath := filepath.Join(dir, "trace.json")
	var stdout strings.Builder
	err := run([]string{"-fast", "-only", "recovery,fig10", "-out", outDir, "-trace-out", tracePath}, &stdout)
	if err != nil {
		t.Fatal(err)
	}

	// Experiments run in suite order whatever the -only order, each table
	// followed by its "[name done in ...]" line on stdout only.
	done := regexp.MustCompile(`(?m)^\[(\w+) done in [0-9.]+s\]\n\n`)
	names := []string{"fig10", "recovery"}
	var ran []string
	for _, m := range done.FindAllStringSubmatch(stdout.String(), -1) {
		ran = append(ran, m[1])
	}
	if strings.Join(ran, ",") != strings.Join(names, ",") {
		t.Fatalf("ran %v, want %v", ran, names)
	}
	tables := done.Split(stdout.String(), -1)
	sizes := map[string]int{}
	for i, name := range names {
		file, err := os.ReadFile(filepath.Join(outDir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if len(file) == 0 || string(file) != tables[i] {
			t.Fatalf("%s.txt differs from the printed table:\nfile:\n%s\nprinted:\n%s", name, file, tables[i])
		}
		sizes[name] = len(file)
	}
	if entries, _ := os.ReadDir(outDir); len(entries) != len(names) {
		t.Fatalf("out dir holds %d files, want %d", len(entries), len(names))
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(raw); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "experiment" {
			spans[ev.Name], _ = ev.Args["bytes"].(string)
		}
	}
	if len(spans) != len(names) {
		t.Fatalf("experiment spans %v, want one per experiment %v", spans, names)
	}
	for _, name := range names {
		if spans[name] != strconv.Itoa(sizes[name]) {
			t.Errorf("%s span bytes=%q, want %d", name, spans[name], sizes[name])
		}
	}
}

// TestRunRejectsBadArgs: an unknown -only name or a removed flag is an
// error before anything runs or is written.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nosuch"},
		{"-only", "recovery,nosuch"},
		{"-telemetry", "t.json"},
	} {
		outDir := filepath.Join(t.TempDir(), "tables")
		var stdout strings.Builder
		err := run(append(args, "-fast", "-out", outDir), &stdout)
		if err == nil {
			t.Errorf("%v: want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed:\n%s", args, stdout.String())
		}
		if _, err := os.Stat(outDir); !os.IsNotExist(err) {
			t.Errorf("%v: created the out dir", args)
		}
	}
	err := run([]string{"-only", "fig2,nosuch"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "nosuch") || !strings.Contains(err.Error(), "ablations") {
		t.Fatalf("error should name the unknown experiment and list the valid ones: %v", err)
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range suite {
		if e.name == "" || seen[e.name] {
			t.Fatalf("duplicate or empty experiment name %q", e.name)
		}
		seen[e.name] = true
	}
}
