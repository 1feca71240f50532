package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcmt/internal/obs"
)

// writeTrace exports a root span over [0, 100] µs with one child named
// child over [start, start+dur] to a file and returns its path.
func writeTrace(t *testing.T, child string, start, dur int64) string {
	t.Helper()
	tr := obs.NewTracer()
	root := tr.Add(0, "root", "test", 0, 0, 0, 100)
	tr.Add(root, child, "test", 0, 1, start, dur)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunChecksTraces: a valid trace exits 0 and prints its span count; an
// invalid one, a missing file or no argument at all exits non-zero with
// the reason on stderr and nothing on stdout.
func TestRunChecksTraces(t *testing.T) {
	for _, tc := range []struct {
		name           string
		args           []string
		code           int
		stdout, stderr string // substrings; empty means the stream is empty
	}{
		{"valid", []string{writeTrace(t, "inside", 10, 20)}, 0, ": ok (2 spans)", ""},
		{"child escapes parent", []string{writeTrace(t, "escapee", 50, 100)}, 1, "", "(escapee) [50,150] escapes parent"},
		{"missing file", []string{filepath.Join(t.TempDir(), "absent.json")}, 1, "", "absent.json: no such file"},
		{"no arguments", nil, 2, "", "usage: tracecheck"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			for _, s := range []struct{ name, got, want string }{
				{"stdout", stdout.String(), tc.stdout},
				{"stderr", stderr.String(), tc.stderr},
			} {
				if !strings.Contains(s.got, s.want) || (s.want == "" && s.got != "") {
					t.Errorf("%s %q, want %q", s.name, s.got, s.want)
				}
			}
		})
	}
}
