package main

import (
	"net"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: every flag value the service cannot run with is
// an error from run before any graph loads or the listener opens. Each
// case also names a missing -graph-dir and an address that is already
// taken, so an error from either would mean run got past validation; the
// error must name the offending flag or value, and nothing is printed.
// The first case, with no bad flag, is the missing -graph-dir itself: it
// fails the start-up before the listener opens.
func TestRunRejectsBadFlags(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	missing := filepath.Join(t.TempDir(), "no-such-dir")

	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "no-such-dir"},
		{[]string{"-max-running", "-1"}, "-max-running"},
		{[]string{"-max-running", "0"}, "-max-running"},
		{[]string{"-queue-cap", "0"}, "-queue-cap"},
		{[]string{"-queue-cap", "-5"}, "-queue-cap"},
		{[]string{"-budget-gb", "-1"}, "-budget-gb"},
		{[]string{"-machines", "-3"}, "-machines"},
		{[]string{"-train-exp", "1"}, "-train-exp"},
		{[]string{"-train-exp", "-1"}, "-train-exp"},
		{[]string{"-train-exp", "2"}, "-train-exp"},
		{[]string{"-tolerance", "0"}, "-tolerance"},
		{[]string{"-tolerance", "-0.1"}, "-tolerance"},
		{[]string{"-tolerance", "NaN"}, "-tolerance"},
		{[]string{"-system", "NoSuchSystem"}, "NoSuchSystem"},
		{[]string{"-cluster", "NoSuchCluster"}, "NoSuchCluster"},
		{[]string{"-datasets", "Web-St,NoSuchDataset"}, "NoSuchDataset"},
	} {
		args := append([]string{"-addr", taken.Addr().String(), "-graph-dir", missing}, tc.args...)
		var out strings.Builder
		err := run(args, &out)
		if err == nil {
			t.Fatalf("%v: want an error", tc.args)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: error %q does not name %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: printed %q before failing", tc.args, out.String())
		}
	}
}
