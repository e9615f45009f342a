package malsched

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
)

func fpInstance() *Instance {
	return &Instance{
		M: 8,
		Tasks: []Task{
			PowerLawTask("prep", 10, 0.8, 8),
			PowerLawTask("solve", 40, 0.9, 8),
			AmdahlTask("post", 5, 0.2, 8),
		},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
}

func TestFingerprintShape(t *testing.T) {
	fp := fpInstance().Fingerprint()
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(fp) {
		t.Fatalf("fingerprint %q is not 64 hex chars", fp)
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	if fpInstance().Fingerprint() != fpInstance().Fingerprint() {
		t.Fatal("same instance hashed twice gives different fingerprints")
	}
}

func TestFingerprintIgnoresNames(t *testing.T) {
	a, b := fpInstance(), fpInstance()
	for i := range b.Tasks {
		b.Tasks[i].Name = "renamed"
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("renaming tasks changed the fingerprint")
	}
}

func TestFingerprintIgnoresEdgeOrderAndDuplicates(t *testing.T) {
	a, b := fpInstance(), fpInstance()
	b.Edges = [][2]int{{1, 2}, {0, 1}, {1, 2}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("edge permutation + duplicate changed the fingerprint")
	}
}

// TestFingerprintGolden pins both encodings on a committed instance.
// Clients hold fingerprints across requests (a delta request names its
// base by one), so an encoding change must come with a version bump, not
// slip in; edge order and duplicates must not move either value.
func TestFingerprintGolden(t *testing.T) {
	f, err := os.Open("testdata/layered_n12_m8.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := *in
	shuffled.Edges = append([][2]int{in.Edges[0]}, in.Edges...)
	for i, j := 0, len(shuffled.Edges)-1; i < j; i, j = i+1, j-1 {
		shuffled.Edges[i], shuffled.Edges[j] = shuffled.Edges[j], shuffled.Edges[i]
	}
	const (
		fp  = "58d6ae885161bdeea63386c68717d4f7692556ceda6d482945d6fd184bc9d4a4"
		sfp = "3283198794fd9a549a0c2995d7703ee6d8a3a27b8b7815e6898cac4f3faacfe3"
	)
	for name, x := range map[string]*Instance{"committed": in, "reversed+duplicate": &shuffled} {
		if got := x.Fingerprint(); got != fp {
			t.Errorf("%s: Fingerprint %s, want %s", name, got, fp)
		}
		if got := x.StructureFingerprint(); got != sfp {
			t.Errorf("%s: StructureFingerprint %s, want %s", name, got, sfp)
		}
	}
}

// TestFingerprintGoldenServeShape pins both encodings on a serve-shape
// instance (n=96, m=16), whose encodings span many of the blocks the
// digest is fed in: the digests are the ones the encoding gave when each
// value went to the digest on its own.
func TestFingerprintGoldenServeShape(t *testing.T) {
	in := servingInstance(1, 12, 8, 2, 16, 1)
	const (
		fp  = "a14224d84aa051e58b4be3863c72c2356dd829508adfedf94f71999bd0c344ee"
		sfp = "b1c0335c228c28f5f7fa16a3f69e7b8468c5ce5b004da3ef07c0d4b00bf29a18"
	)
	if got := in.Fingerprint(); got != fp {
		t.Errorf("Fingerprint %s, want %s", got, fp)
	}
	if got := in.StructureFingerprint(); got != sfp {
		t.Errorf("StructureFingerprint %s, want %s", got, sfp)
	}
}

// midQuantum moves p to the middle of its quantization bucket, so that
// sub-quantum noise cannot straddle a rounding boundary. Quantization is a
// round, not an interval map: noise landing exactly on a boundary still
// flips the bucket, and the absorption guarantee is only for values away
// from one — which is what this helper sets up.
func midQuantum(p float64) float64 {
	bits := math.Float64bits(p)
	bits = bits&^0xFFF | 0x400
	return math.Float64frombits(bits)
}

func TestFingerprintQuantizesFloatNoise(t *testing.T) {
	a, b := fpInstance(), fpInstance()
	for i := range a.Tasks {
		for l := range a.Tasks[i].Times {
			p := midQuantum(a.Tasks[i].Times[l])
			a.Tasks[i].Times[l] = p
			b.Tasks[i].Times[l] = p * (1 + 1e-14) // well below the 40-bit quantum
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("sub-quantum float noise changed the fingerprint")
	}
}

func TestQuantize(t *testing.T) {
	if quantize(math.NaN()) != quantize(math.Float64frombits(0x7FF8000000000001)) {
		t.Error("NaN payloads not canonicalized")
	}
	if quantize(math.Inf(1)) != math.Float64bits(math.Inf(1)) || quantize(math.Inf(-1)) != math.Float64bits(math.Inf(-1)) {
		t.Error("infinities not preserved")
	}
	if quantize(1.0) != math.Float64bits(1.0) {
		t.Error("exactly representable value moved")
	}
	// A value a hair under a power of two rounds onto it (carry into the
	// exponent), matching how decimal rounding would behave.
	just := math.Float64frombits(math.Float64bits(2.0) - 1)
	if quantize(just) != math.Float64bits(2.0) {
		t.Errorf("carry rounding: quantize(%x) = %x, want bits of 2.0", just, quantize(just))
	}
	// The two float zeros compare equal and schedule identically, so they
	// must fingerprint identically (the sign bit would otherwise split
	// cache entries for the same problem).
	if quantize(math.Copysign(0, -1)) != quantize(0.0) {
		t.Error("-0.0 and +0.0 quantize differently")
	}
}

// TestFingerprintZeroSign: instances differing only in the sign of a zero
// processing time describe the same scheduling problem and must share a
// fingerprint. (Zero times are invalid for solving, but Fingerprint is
// total and the serving layer keys its cache before validation.)
func TestFingerprintZeroSign(t *testing.T) {
	mk := func(z float64) *Instance {
		return &Instance{
			M:     2,
			Tasks: []Task{NewTask("a", []float64{z, z})},
		}
	}
	if mk(math.Copysign(0, -1)).Fingerprint() != mk(0).Fingerprint() {
		t.Error("fingerprints split on the sign of a zero processing time")
	}
}

func TestFingerprintSeparatesDifferentInstances(t *testing.T) {
	base := fpInstance()
	seen := map[string]string{base.Fingerprint(): "base"}
	record := func(name string, in *Instance) {
		fp := in.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}

	m := fpInstance()
	m.M = 4
	record("different m", m)

	edge := fpInstance()
	edge.Edges = [][2]int{{0, 1}}
	record("dropped edge", edge)

	edgeFlip := fpInstance()
	edgeFlip.Edges = [][2]int{{1, 0}, {1, 2}}
	record("reversed edge", edgeFlip)

	times := fpInstance()
	times.Tasks[0].Times[3] *= 1.001 // well above the quantum
	record("perturbed time", times)

	perm := fpInstance()
	perm.Tasks[0], perm.Tasks[1] = perm.Tasks[1], perm.Tasks[0]
	record("swapped tasks", perm)

	fewer := fpInstance()
	fewer.Tasks = fewer.Tasks[:2]
	fewer.Edges = [][2]int{{0, 1}}
	record("fewer tasks", fewer)
}

// Task/edge counts must be framed: two tasks of 2 and 4 times must not hash
// like two tasks of 3 and 3 times, and a time moving across a task boundary
// must change the hash.
func TestFingerprintFraming(t *testing.T) {
	a := &Instance{M: 2, Tasks: []Task{
		{Times: []float64{4, 2}},
		{Times: []float64{6, 3, 2, 1}},
	}}
	b := &Instance{M: 2, Tasks: []Task{
		{Times: []float64{4, 2, 6}},
		{Times: []float64{3, 2, 1}},
	}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("task boundary shift did not change the fingerprint")
	}
}

func TestFingerprintTotalOnWeirdValues(t *testing.T) {
	in := &Instance{M: 1, Tasks: []Task{{Times: []float64{math.Inf(1)}}, {Times: []float64{math.NaN()}}}}
	fp1 := in.Fingerprint()
	in2 := &Instance{M: 1, Tasks: []Task{{Times: []float64{math.Inf(1)}}, {Times: []float64{math.NaN()}}}}
	if fp1 != in2.Fingerprint() {
		t.Error("non-finite values do not hash deterministically")
	}
}

// TestStructureFingerprintSharedAcrossNumbers: the structure fingerprint
// identifies the DAG shape only — instances equal in shape but differing in
// processing times must share the structure fingerprint while their full
// fingerprints differ. This is the delta path's admission condition: a
// cached basis is transplantable exactly when the LP layout matches, and
// the layout depends only on structure.
func TestStructureFingerprintSharedAcrossNumbers(t *testing.T) {
	a, b := fpInstance(), fpInstance()
	for i := range b.Tasks {
		for l := range b.Tasks[i].Times {
			b.Tasks[i].Times[l] *= 1.37 // scaling preserves monotonicity + concavity
		}
	}
	if a.StructureFingerprint() != b.StructureFingerprint() {
		t.Error("same shape, different numbers: structure fingerprints differ")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different numbers share a full fingerprint")
	}
}

func TestStructureFingerprintShape(t *testing.T) {
	sfp := fpInstance().StructureFingerprint()
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(sfp) {
		t.Fatalf("structure fingerprint %q is not 64 hex chars", sfp)
	}
	if sfp == fpInstance().Fingerprint() {
		t.Fatal("structure fingerprint equals the full fingerprint")
	}
}

func TestStructureFingerprintIgnoresNamesAndEdgeNoise(t *testing.T) {
	a, b := fpInstance(), fpInstance()
	for i := range b.Tasks {
		b.Tasks[i].Name = "renamed"
	}
	b.Edges = [][2]int{{1, 2}, {0, 1}, {1, 2}}
	if a.StructureFingerprint() != b.StructureFingerprint() {
		t.Error("names / edge permutation + duplicate changed the structure fingerprint")
	}
}

func TestStructureFingerprintSeparatesShapes(t *testing.T) {
	base := fpInstance()
	seen := map[string]string{base.StructureFingerprint(): "base"}
	record := func(name string, in *Instance) {
		sfp := in.StructureFingerprint()
		if prev, dup := seen[sfp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[sfp] = name
	}

	m := fpInstance()
	m.M = 4
	record("different m", m)

	edge := fpInstance()
	edge.Edges = [][2]int{{0, 1}}
	record("dropped edge", edge)

	fewer := fpInstance()
	fewer.Tasks = fewer.Tasks[:2]
	fewer.Edges = [][2]int{{0, 1}}
	record("fewer tasks", fewer)

	widths := fpInstance()
	widths.Tasks[0].Times = widths.Tasks[0].Times[:4]
	record("shorter times vector", widths)
}

// The fingerprint must survive the package's own JSON round-trip: serving a
// stored instance back through the API must hit the same cache entry.
func TestFingerprintStableUnderJSONRoundTrip(t *testing.T) {
	in := fpInstance()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if in.Fingerprint() != back.Fingerprint() {
		t.Error("JSON round-trip changed the fingerprint")
	}
}
