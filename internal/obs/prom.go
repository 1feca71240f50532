package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// helpDefaults documents the registry's core metric families so /metrics
// carries HELP lines without every call site registering text. Registry
// SetHelp overrides these per registry.
var helpDefaults = map[string]string{
	"sim_batches_total":                "Batches started on the simulated cluster.",
	"sim_rounds_total":                 "Priced supersteps on the simulated cluster.",
	"sim_round_seconds":                "Simulated seconds per superstep.",
	"sim_round_msgs":                   "Logical messages per superstep (replica scale).",
	"sim_round_skew_ratio":             "Worst/mean machine load ratio per superstep.",
	"sim_seconds":                      "Cumulative simulated seconds of the current run.",
	"sim_sent_logical_total":           "Logical messages sent per simulated machine.",
	"sim_recv_logical_total":           "Logical messages received per simulated machine.",
	"ckpt_writes_total":                "Checkpoints written at superstep barriers.",
	"ckpt_bytes_total":                 "Checkpoint bytes written.",
	"ckpt_write_seconds":               "Simulated seconds per checkpoint write.",
	"recoveries_total":                 "Crash recoveries performed.",
	"recovery_rounds_lost_total":       "Supersteps re-executed by recoveries.",
	"recovery_seconds":                 "Simulated seconds per recovery.",
	"rpcrt_sent_total":                 "Messages sent per rpcrt worker (local + remote).",
	"rpcrt_recv_total":                 "Messages received per rpcrt worker (local + remote).",
	"rpcrt_sent_remote_total":          "Messages sent to remote rpcrt workers.",
	"rpcrt_recv_remote_total":          "Messages received from remote rpcrt workers.",
	"rpcrt_sent_bytes_total":           "Exact encoded bytes of delivery frames sent.",
	"rpcrt_recv_bytes_total":           "Exact encoded bytes of delivery frames received.",
	"rpcrt_sent_frames_total":          "Delivery frames encoded and sent.",
	"rpcrt_recv_frames_total":          "Delivery frames received and decoded.",
	"rpcrt_deliver_retries_total":      "Delivery RPCs retried after drops or transport errors.",
	"rpcrt_round_msgs":                 "Messages per rpcrt superstep.",
	"rpcrt_round_wire_bytes":           "Delivery-frame bytes per rpcrt superstep.",
	"rpcrt_round_wall_seconds":         "Wall-clock seconds per rpcrt superstep.",
	"rpcrt_ckpt_writes_total":          "rpcrt worker checkpoints written.",
	"rpcrt_ckpt_bytes_total":           "rpcrt checkpoint bytes written.",
	"rpcrt_worker_restarts_total":      "rpcrt workers restarted during recovery.",
	"rpcrt_recoveries_total":           "rpcrt cluster recoveries performed.",
	"rpcrt_recovery_rounds_lost_total": "rpcrt supersteps re-executed by recoveries.",
	"serve_jobs_submitted_total":       "Jobs submitted to POST /v1/jobs.",
	"serve_jobs_admitted_total":        "Jobs admitted by the memory-model admission controller.",
	"serve_jobs_queued_total":          "Jobs queued for budget or a worker slot.",
	"serve_jobs_rejected_total":        "Jobs rejected (infeasible under the model, or queue full).",
	"serve_jobs_completed_total":       "Jobs that finished successfully.",
	"serve_jobs_failed_total":          "Jobs whose engine run returned an error.",
	"serve_jobs_shrunk_total":          "Jobs whose batch plan was shrunk to fit the memory budget.",
	"serve_jobs_running":               "Jobs currently executing.",
	"serve_queue_depth":                "Jobs currently waiting in the admission queue.",
	"serve_mem_budget_bytes":           "Admission memory budget (per machine, paper scale).",
	"serve_mem_reserved_bytes":         "Predicted memory reserved by running jobs.",
	"serve_job_predicted_peak_bytes":   "Predicted per-job peak memory at admission.",
	"serve_job_sim_seconds":            "Simulated seconds per completed job.",
	"serve_admission_rel_error":        "Relative error of the admission-time peak-memory prediction.",
	"serve_models_trained_total":       "Admission models trained (one per task/dataset/scale key).",
	"serve_model_refits_total":         "Admission-model re-fits from measured job peaks.",
}

// WritePrometheus writes the registry's snapshot in the Prometheus text
// exposition format (version 0.0.4). Counters and gauges map directly;
// histograms are exposed as summaries with 0.5/0.95/0.99 quantiles plus
// _sum and _count. Output is grouped by metric family and sorted, so the
// exposition is deterministic for a given registry state — the golden
// test in prom_test.go pins the format.
func WritePrometheus(w io.Writer, reg *Registry) error {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	byName := make(map[string][]MetricSnapshot)
	names := make([]string, 0, len(snap))
	for _, s := range snap {
		if _, ok := byName[s.Name]; !ok {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		series := byName[name]
		if help := reg.helpFor(name); help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, promType(series[0].Kind))
		for _, s := range series {
			switch s.Kind {
			case "counter", "gauge":
				fmt.Fprintf(&b, "%s%s %s\n", name, promLabels(s.Labels, "", ""), promFloat(s.Value))
			case "histogram":
				fmt.Fprintf(&b, "%s%s %s\n", name, promLabels(s.Labels, "quantile", "0.5"), promFloat(s.P50))
				fmt.Fprintf(&b, "%s%s %s\n", name, promLabels(s.Labels, "quantile", "0.95"), promFloat(s.P95))
				fmt.Fprintf(&b, "%s%s %s\n", name, promLabels(s.Labels, "quantile", "0.99"), promFloat(s.P99))
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, promLabels(s.Labels, "", ""), promFloat(s.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", name, promLabels(s.Labels, "", ""), s.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promType maps registry kinds to Prometheus type names. Histograms are
// exported as summaries: the registry stores streaming quantiles, not
// fixed buckets.
func promType(kind string) string {
	switch kind {
	case "counter":
		return "counter"
	case "gauge":
		return "gauge"
	case "histogram":
		return "summary"
	default:
		return "untyped"
	}
}

// promLabels renders a label set (plus an optional extra label) as
// {k="v",...}, empty when there are no labels.
func promLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, l := range labels {
		if !first {
			b.WriteByte(',')
		}
		first = false
		// %q yields the Prometheus label escaping (\\, \", \n).
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
