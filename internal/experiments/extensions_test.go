package experiments

import (
	"strings"
	"testing"
)

func TestScaleUpVsScaleOut(t *testing.T) {
	// At a workload that overloads the 8x16GB cluster at Full-Parallelism,
	// the strong machine's pooled memory absorbs it (§4.9: more memory
	// keeps away the memory-bound state), at the price of fewer aggregate
	// network links mattering less since traffic is local.
	res, err := ScaleUpVsScaleOut(fast(), 12288)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ClusterOverload {
		t.Fatalf("cluster should overload at W=12288 Full-Parallelism (got %.0fs)", res.ClusterSeconds)
	}
	if res.StrongOverload {
		t.Fatalf("strong machine should absorb the workload (got %.0fs)", res.StrongSeconds)
	}
}

func TestScaleUpLightWorkloadFavorsCluster(t *testing.T) {
	// With no memory pressure, the cluster's aggregate compute wins? Both
	// have 64 cores total; the strong machine avoids network entirely, so
	// it should be at least competitive.
	res, err := ScaleUpVsScaleOut(fast(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterOverload || res.StrongOverload {
		t.Fatal("light workload must not overload either setup")
	}
	if res.StrongSeconds > res.ClusterSeconds*1.5 {
		t.Fatalf("strong machine should be competitive on light workloads: %.0fs vs %.0fs",
			res.StrongSeconds, res.ClusterSeconds)
	}
}

func TestAblationMirroring(t *testing.T) {
	res, err := AblationMirroring(fast())
	if err != nil {
		t.Fatal(err)
	}
	if res.VariantWireGB >= res.BaselineWireGB {
		t.Fatalf("mirroring must cut wire bytes: %.2fGB vs %.2fGB",
			res.VariantWireGB, res.BaselineWireGB)
	}
}

func TestAblationCombining(t *testing.T) {
	res, err := AblationCombining(fast())
	if err != nil {
		t.Fatal(err)
	}
	if res.VariantSeconds >= res.BaselineSeconds {
		t.Fatalf("combining must speed up counted-walk traffic: %.0fs vs %.0fs",
			res.VariantSeconds, res.BaselineSeconds)
	}
	if res.VariantWireGB >= res.BaselineWireGB {
		t.Fatal("combining must reduce wire bytes")
	}
}

func TestAblationOutOfCore(t *testing.T) {
	res, err := AblationOutOfCore(fast())
	if err != nil {
		t.Fatal(err)
	}
	// In-memory at this workload thrashes or overloads; out-of-core bounds
	// memory and finishes (the GraphD design rationale).
	if res.VariantOverload {
		t.Fatal("out-of-core run must finish")
	}
	if !res.BaselineOverload && res.BaselineSeconds <= res.VariantSeconds {
		t.Fatalf("in-memory baseline should lose at this workload: %.0fs vs %.0fs",
			res.BaselineSeconds, res.VariantSeconds)
	}
}

func TestAblationUnequalBatching(t *testing.T) {
	res, err := AblationUnequalBatching(fast())
	if err != nil {
		t.Fatal(err)
	}
	if res.VariantSeconds >= res.BaselineSeconds {
		t.Fatalf("front-loaded unequal split must beat the equal split: %.0fs vs %.0fs",
			res.VariantSeconds, res.BaselineSeconds)
	}
}

func TestFinerBatchesLocatesInteriorOptimum(t *testing.T) {
	ser, err := FinerBatches(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(ser.Rows) != 16 {
		t.Fatalf("rows=%d", len(ser.Rows))
	}
	best := ser.Best()
	if best.Batches <= 1 || best.Batches >= 16 {
		t.Fatalf("optimum must be interior, got %d-batch", best.Batches)
	}
	// Doubling-sweep resolution claim: the exact optimum sits within the
	// bracket the doubling numbers identify.
	if best.Batches > 10 {
		t.Fatalf("optimum %d inconsistent with the doubling sweep's 2-8 bracket", best.Batches)
	}
}

func TestFigure11Correlations(t *testing.T) {
	res, err := Figure11(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points=%d", len(res.Points))
	}
	if !res.WorkloadRaisesCongestion {
		t.Fatal("workload must raise congestion")
	}
	if !res.CongestionRaisesMemory {
		t.Fatal("congestion must raise memory use")
	}
	if !res.CongestionRaisesDiskUtil {
		t.Fatal("congestion must raise disk utilization")
	}
	// The heaviest workload must reach both bound states.
	last := res.Points[len(res.Points)-1]
	if !last.MemoryBound {
		t.Fatal("heaviest workload must be memory-bound on the in-memory system")
	}
	if !last.DiskBound {
		t.Fatal("heaviest workload must be disk-bound on the out-of-core system")
	}
}

func TestWriteScaleUpAndAblationsRender(t *testing.T) {
	var sb strings.Builder
	WriteScaleUp(&sb, ScaleUpResult{PaperW: 12288, ClusterOverload: true, ClusterSeconds: 7000, StrongSeconds: 3608.4})
	WriteAblations(&sb, []AblationResult{{
		Name: "mirroring", BaselineSeconds: 217.2, VariantSeconds: 92.6,
		BaselineWireGB: 46.554, VariantWireGB: 7.06,
	}, {
		Name: "out-of-core", BaselineOverload: true, VariantSeconds: 4925,
	}})
	want := `== Scale-up vs scale-out: BPPR 12288 at Full-Parallelism (DBLP, Pregel+) ==
setup                                      time
Galaxy-8 (8 machines)                      overload
Strong-1 (1 machine, 8x memory and cores)  3608s

== Ablations: design choice off (baseline) vs on (variant) (BPPR, DBLP, Galaxy-8) ==
ablation     baseline  variant  baseline-wire  variant-wire
mirroring    217s      93s      46.55GB        7.06GB
out-of-core  overload  4925s    0.00GB         0.00GB

`
	if sb.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", sb.String(), want)
	}
}
