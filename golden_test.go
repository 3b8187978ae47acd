package finegrain_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	finegrain "finegrain"
	"finegrain/internal/rng"
)

// goldenDigests pins the exact ownership arrays every registry model
// produces on two catalog matrices at scale 0.05, seed 1. K = 24 is
// there because it is not a power of two: recursive bisection splits
// unevenly and the K-way balancer has work to do. A change
// meant to preserve partitions byte for byte (a refactor, a deletion,
// a speed-up) must leave every digest untouched; a change meant to
// alter partitions re-records them and says so.
var goldenDigests = map[string]string{
	"ken-11/16/finegrain":    "7b7d325dc261706292215614c28378b570cfb664043ceb3d5072025230e8422a",
	"ken-11/16/hypergraph":   "289ad683318382b38c3d401e981b9ace964cc87a057765fde1103bd8468cdca1",
	"ken-11/16/graph":        "3cbbe5c1bf47240e76839be9510b0af6695b511721453f0bdea0ed624d24f7e6",
	"ken-11/16/locality":     "c3d3590795df2d99a1904531dc9e76e69efa85c5bd428be1b3145b672b9f8ca2",
	"ken-11/16/medium_grain": "a7f79c78104a1059d6507dba6e5273c750a4bb1e14cbfe017d8d8a0dbf0c06d4",
	"ken-11/16/spgemm":       "6c254da94dd2cce1deb9b0949e0bad3cb40a692dadf100d5729d4bd1bb5a1a1e",
	"ken-11/16/spgemm_1d":    "a59b96050bf31494c841a04927582c387c783273e2d792d4b937f46fb7751b17",
	"ken-11/16/auto":         "7b7d325dc261706292215614c28378b570cfb664043ceb3d5072025230e8422a",
	"ken-11/24/finegrain":    "9e09ccf636763ff62f06e0b2f33b60d3e335c18a4a48cb1a055f914e7d593c73",
	"ken-11/24/hypergraph":   "c0377b7e090ed5354687003febc2b7c28b707bbbbbbc29ba34d576488745a87a",
	"ken-11/24/graph":        "e2aa7f89bca0e805004d6730a34de4b8f8e2faa328ff391e713c6f376240d27c",
	"ken-11/24/locality":     "8cab084d0b3be2f4c280af72f3f113b50c4c96c4e714c36043ceb885cad899cd",
	"ken-11/24/medium_grain": "b26a5c7506e24b5e293b1d75f64ab9e8a33b6ec894e57ecbfb1917121f765cd3",
	"ken-11/24/spgemm":       "f72e4a57e88020daa5086214fdc755f67dedeba95414475b0bc9f11a7e240abc",
	"ken-11/24/spgemm_1d":    "4d573772098a38cdb44269f7ad01e60036fe4f6f84a6aff1cfc592d590714d43",
	"ken-11/24/auto":         "9e09ccf636763ff62f06e0b2f33b60d3e335c18a4a48cb1a055f914e7d593c73",
	"ken-11/64/finegrain":    "64d5450d29a1c432df6e1d8e3e0632f8fafebc938528f0d62904e0ad8dbdd0b9",
	"ken-11/64/hypergraph":   "9f3367a22a470f8fbf0b03f0688a59c1b76b0d7d282f5486e2ed6534643da806",
	"ken-11/64/graph":        "b976a980c4dfc1e6577cde47d4be386c84d57c9372b54b1896a859aca0534934",
	"ken-11/64/locality":     "67283d0590be1f0ba375bcbb8d6a157eb30ac45b60a9f4e448b81f423c0cbed8",
	"ken-11/64/medium_grain": "89ac87fc616b5e615ce36b945ea0873349da14eda0967501c62437db2d3a0c0d",
	"ken-11/64/spgemm":       "2e0ce5d1a1dc440d0e28138e40ce3f7d73d037818cc9dee5d1b31712a088c00e",
	"ken-11/64/spgemm_1d":    "1f0f8cec9d1f96083d6b625a4a5ef81c72b337d0dca786f614260dd5646e2ebe",
	"ken-11/64/auto":         "64d5450d29a1c432df6e1d8e3e0632f8fafebc938528f0d62904e0ad8dbdd0b9",
	"cq9/16/finegrain":       "69bf201c6d458e6dcdc51ac906a1f91d3b282fc67441276bcb357887feb8adc0",
	"cq9/16/hypergraph":      "4a5a50771ff0804dd9c6f8669fcd6ccd0134d26723dc92545ac475ec72051137",
	"cq9/16/graph":           "d4e12c8e8e38a750908e61c694edb48140c5d8f77ceb88ddb3b7906890890186",
	"cq9/16/locality":        "638acd778ee9fa5c5105ff71d32b5588c4751fbf9f58bd1a6622ae14e7903364",
	"cq9/16/medium_grain":    "db88e49ff67413ff332d3e5390efd172ab15570195ff0ba87d0b7aba3120fd8d",
	"cq9/16/spgemm":          "545b86f2f9bbb2dccdc8e7af263c6f40eca9c0b4f36cc50814780bd0b894ae89",
	"cq9/16/spgemm_1d":       "bce35d63752ab2572dd0fea9d08bda11d7e02b990c9af83aae2e89b1d4fc7bdd",
	"cq9/16/auto":            "69bf201c6d458e6dcdc51ac906a1f91d3b282fc67441276bcb357887feb8adc0",
	"cq9/24/finegrain":       "a7ef9eeb03c4ecb38514dbb337669e44ae65a867f4b4f5ef45dccf46eaaec671",
	"cq9/24/hypergraph":      "60ea4178ea297f8a18edeb55861572891ddcf250ed7d314f5eaee0cb87df3cad",
	"cq9/24/graph":           "c6983c0cefae11aeb36c5ba9aa2bd256210b1c940e0edc22153812ffa3383544",
	"cq9/24/locality":        "5260e39d69cdb3aeb54f44a57a331ac7b9a61b4fc79ae2000f33e44159d52e21",
	"cq9/24/medium_grain":    "d94852153b0a42b21fa18083acab74a0bf06fca71bbb39dd6cb4ea21077512a4",
	"cq9/24/spgemm":          "e76550a0b421ce0d581079005bf0309e08721fcfd5987bea8b06d45149dc27b1",
	"cq9/24/spgemm_1d":       "e4bc09ed30b073de664ba1332abb4bf38e61210de6af00163be39fc05aac75a1",
	"cq9/24/auto":            "a7ef9eeb03c4ecb38514dbb337669e44ae65a867f4b4f5ef45dccf46eaaec671",
	"cq9/64/finegrain":       "a60f8d786d4c3836bba7a20bb464e231dfc0d4e071ea37766abe6c4a2c8c0703",
	"cq9/64/hypergraph":      "191688f7988283fdf64fa7d72b8e9febf6492ae1053148f1785ebb2a70d96d24",
	"cq9/64/graph":           "a66fc0fab94bc5150d300d9af0b0f449833555fe295d0b3232a6a6622963407f",
	"cq9/64/locality":        "77e061e50392d4c6162a63a68a1e698a1bccae2965c88a8212207fbc82662c75",
	"cq9/64/medium_grain":    "881869c9a12801957102c6a57963921798dcd14dd5e504eec8c0a2b2c011d297",
	"cq9/64/spgemm":          "0dda5c15deed8bd4ff595625e23778ca4008a8278e4b35a2be67ebecb9aa131b",
	"cq9/64/spgemm_1d":       "440496f1151d526d47ead59a4bdb0c1ab14b6e8f4b4b0a14d6f5e3d7128ee634",
	"cq9/64/auto":            "a60f8d786d4c3836bba7a20bb464e231dfc0d4e071ea37766abe6c4a2c8c0703",
}

// ownerDigest hashes a decomposition's model name, K and owner arrays
// (nonzero, x and y owners for SpMV models; task, A, B and C owners for
// SpGEMM models), each array prefixed by its length.
func ownerDigest(dec *finegrain.Decomposition) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(dec.Model))
	var arrays [][]int
	if dec.SpGEMM != nil {
		g := dec.SpGEMM
		put(g.K)
		arrays = [][]int{g.TaskOwner, g.AOwner, g.BOwner, g.COwner}
	} else {
		asg := dec.Assignment
		put(asg.K)
		arrays = [][]int{asg.NonzeroOwner, asg.XOwner, asg.YOwner}
	}
	for _, arr := range arrays {
		put(len(arr))
		for _, v := range arr {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPartitions decomposes ken-11 and cq9 (scale 0.05) at
// K ∈ {16, 24, 64}, seed 1, with every registry model and compares the
// SHA-256 of the resulting ownership arrays against the recorded
// digests.
func TestGoldenPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("golden partitions decompose 48 instances")
	}
	seen := 0
	for _, name := range []string{"ken-11", "cq9"} {
		a, err := finegrain.Generate(name, 0.05, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{16, 24, 64} {
			for _, m := range finegrain.Models() {
				key := fmt.Sprintf("%s/%d/%s", name, k, m.Name)
				want, ok := goldenDigests[key]
				if !ok {
					t.Errorf("%s: no recorded digest", key)
					continue
				}
				seen++
				dec, err := finegrain.DecomposeModel(m.Name, a, k, finegrain.Options{Seed: 1})
				if err != nil {
					t.Errorf("%s: %v", key, err)
					continue
				}
				if got := ownerDigest(dec); got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
	if seen != len(goldenDigests) {
		t.Errorf("checked %d instances, %d digests recorded", seen, len(goldenDigests))
	}
}

// TestGraphModelWorkersDeterministic requires the owner arrays of the
// graph model and of the hypergraph models (finegrain, hypergraph,
// medium_grain) to be the recorded ones at every Options.Workers: both
// partitioners run recursion branches in parallel, hgpart also its
// round helpers, and the result must not depend on how many run at
// once.
func TestGraphModelWorkersDeterministic(t *testing.T) {
	a, err := finegrain.Generate("ken-11", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"graph", "finegrain", "hypergraph", "medium_grain"} {
		for _, k := range []int{16, 64} {
			want := goldenDigests[fmt.Sprintf("ken-11/%d/%s", k, model)]
			for _, workers := range []int{1, 2, 8} {
				dec, err := finegrain.DecomposeModel(model, a, k, finegrain.Options{Seed: 1, Workers: workers})
				if err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", model, k, workers, err)
				}
				if got := ownerDigest(dec); got != want {
					t.Errorf("%s k=%d workers=%d: digest %s, want %s", model, k, workers, got, want)
				}
			}
		}
	}
}

// goldenFixedDigest pins the part array PartitionHypergraph returns for
// the reduction instance of goldenReduction: the only golden whose
// partitioner run has fixed vertices, so it covers the fixed-vertex
// paths of recursive bisection and the K-way balancer.
const goldenFixedDigest = "a7d59b01a5a6453ffde87e7c795d3c28e4d4b55ce678c864d4fcd3ab45e71373"

// goldenReduction builds the sensor-fusion reduction of
// examples/reduction: 600 tasks over 120 inputs and 40 outputs, with
// inputs 0-19 pre-assigned to part 0 and outputs 0-3 to part 3.
func goldenReduction(t *testing.T, k int) *finegrain.ReductionModel {
	const numInputs, numOutputs, numTasks = 120, 40, 600
	r := rng.New(2024)
	tasks := make([]finegrain.Task, numTasks)
	for i := range tasks {
		cluster := r.Intn(6)
		nIn := 2 + r.Intn(3)
		task := finegrain.Task{Weight: 1 + r.Intn(3)}
		for j := 0; j < nIn; j++ {
			s := cluster*20 + r.Intn(20)
			if r.Intn(10) == 0 {
				s = r.Intn(numInputs)
			}
			task.Inputs = append(task.Inputs, s)
		}
		for o := 0; o < 1+r.Intn(2); o++ {
			task.Outputs = append(task.Outputs, r.Intn(numOutputs))
		}
		tasks[i] = task
	}
	opts := finegrain.ReductionOptions{K: k,
		PreInputs: make([]int, numInputs), PreOutputs: make([]int, numOutputs)}
	for i := range opts.PreInputs {
		opts.PreInputs[i] = -1
		if i < 20 {
			opts.PreInputs[i] = 0
		}
	}
	for o := range opts.PreOutputs {
		opts.PreOutputs[o] = -1
		if o < 4 {
			opts.PreOutputs[o] = 3
		}
	}
	rm, err := finegrain.BuildReduction(numInputs, numOutputs, tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// TestGoldenFixedPartition partitions the reduction hypergraph at
// K = 12, seed 5, where the K-way balancer moves a vertex, and compares the SHA-256 of its part array, prefixed by K and
// the array length, against the recorded digest at Workers 1, 2 and 8.
func TestGoldenFixedPartition(t *testing.T) {
	const k = 12
	rm := goldenReduction(t, k)
	for _, workers := range []int{1, 2, 8} {
		p, err := finegrain.PartitionHypergraph(rm.H, k, rm.Fixed, finegrain.Options{Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for v, f := range rm.Fixed {
			if f >= 0 && p.Parts[v] != f {
				t.Fatalf("workers=%d: fixed vertex %d in part %d, want %d", workers, v, p.Parts[v], f)
			}
		}
		h := sha256.New()
		var buf [8]byte
		for _, x := range append([]int{p.K, len(p.Parts)}, p.Parts...) {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenFixedDigest {
			t.Errorf("workers=%d: digest %s, want %s", workers, got, goldenFixedDigest)
		}
	}
}
