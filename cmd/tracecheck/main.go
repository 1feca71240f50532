// Command tracecheck runs the strict Chrome trace-event decoder over a
// -trace-out file and exits non-zero if it violates the format contract
// (unsorted timestamps, negative durations, dangling or escaped parents).
// CI uses it to gate the smoke run's trace artifact; it is also handy
// before loading a trace into Perfetto.
//
// Usage: tracecheck trace.json [more.json ...]
package main

import (
	"fmt"
	"io"
	"os"

	"vcmt/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run checks every trace file in args, printing each valid file's span
// count to stdout and each failure to stderr, and returns the exit code:
// 0 when every file is valid, 1 when one is not, 2 without arguments.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: tracecheck trace.json [more.json ...]")
		return 2
	}
	code := 0
	for _, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %v\n", err)
			code = 1
			continue
		}
		n, err := obs.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", path, err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: ok (%d spans)\n", path, n)
	}
	return code
}
