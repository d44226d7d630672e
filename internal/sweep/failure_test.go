package sweep

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestDefaultFailureSpecIsDefaultPath pins the backward-compatibility
// contract of the Failure field: an unset spec produces byte-identical
// merged output to an explicit "disk" spec (the same generator), and
// its canonical JSON — hence its checkpoint fingerprint — contains no
// failure key at all, so checkpoints from before the field existed
// still load.
func TestDefaultFailureSpecIsDefaultPath(t *testing.T) {
	worlds := as1239(t)

	unset := testSpec()
	explicit := testSpec()
	explicit.Failure = "disk"

	var outs []string
	for _, spec := range []Spec{unset, explicit} {
		e := &Engine{Spec: spec, Worlds: worlds, Workers: 4}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete() {
			t.Fatal("run incomplete")
		}
		outs = append(outs, merged(t, res, worlds))
	}
	if outs[0] != outs[1] {
		t.Fatal("explicit \"disk\" produced different output than the unset default")
	}

	b, err := json.Marshal(unset)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "failure") {
		t.Fatalf("unset Failure leaks into the canonical JSON: %s", b)
	}
	if Fingerprint(unset) == Fingerprint(explicit) {
		t.Fatal("an explicit generator spec must change the fingerprint (different checkpoints)")
	}
}

// TestFailureSpecFingerprinted: different generators never share a
// checkpoint fingerprint.
func TestFailureSpecFingerprinted(t *testing.T) {
	seen := map[string]string{}
	for _, spec := range []string{"", "disk", "disks", "disks:k=3", "cut", "srlg", "link"} {
		s := testSpec()
		s.Failure = spec
		fp := Fingerprint(s)
		if prev, dup := seen[fp]; dup {
			t.Errorf("specs %q and %q share fingerprint %s", prev, spec, fp)
		}
		seen[fp] = spec
	}
}

// TestFailureSpecFailFast: an invalid generator spec aborts Run before
// any shard executes, and a Fig. 11 sweep refuses generators that
// cannot pin a radius.
func TestFailureSpecFailFast(t *testing.T) {
	worlds := as1239(t)

	bad := testSpec()
	bad.Failure = "frisbee:oops"
	if _, err := (&Engine{Spec: bad, Worlds: worlds}).Run(context.Background()); err == nil {
		t.Fatal("invalid failure spec must abort the run")
	}

	noRadius := testSpec() // testSpec has Fig11 shards
	noRadius.Failure = "link"
	_, err := (&Engine{Spec: noRadius, Worlds: worlds}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "radius") {
		t.Fatalf("fig11 with a radius-free generator must fail fast, got %v", err)
	}

	// The same generator without Fig. 11 shards is fine.
	casesOnly := testSpec()
	casesOnly.Failure = "link"
	casesOnly.Fig11Radii, casesOnly.Fig11Areas = nil, 0
	res, err := (&Engine{Spec: casesOnly, Worlds: worlds}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatal("cases-only link sweep incomplete")
	}
}

// TestGeneratorSweepDeterministicAcrossWorkers extends the core
// determinism property to non-default generators, checked sweeps
// included: merged output is a pure function of the spec.
func TestGeneratorSweepDeterministicAcrossWorkers(t *testing.T) {
	worlds := as1239(t)
	for _, gen := range []string{"disks:k=2,disjoint", "cut", "disks"} {
		gen := gen
		t.Run(gen, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 8} {
				spec := testSpec()
				spec.Failure = gen
				spec.Check = true
				e := &Engine{Spec: spec, Worlds: worlds, Workers: workers}
				res, err := e.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Complete() {
					t.Fatal("run incomplete")
				}
				got := merged(t, res, worlds)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("workers=%d produced different merged output", workers)
				}
			}
		})
	}
}
