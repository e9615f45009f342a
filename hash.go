package malsched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"malsched/internal/prep"
)

// fingerprintVersion tags the canonical encoding; bump it whenever the
// encoding below changes so stale cache entries keyed on old fingerprints
// can never be confused with new ones.
const fingerprintVersion = "malsched-fp-v2" // v2: -0.0 canonicalized to +0.0

// fingerprintMantissaBits is the precision processing times are quantized
// to before hashing: the top 40 of float64's 52 mantissa bits, about 12
// significant decimal digits. That is far below any difference the solvers
// can distinguish (their tolerances sit around 1e-9 relative) while
// absorbing the trailing-bit noise that different producers of the "same"
// instance introduce (recomputed power laws, differently associated sums,
// ...). Quantization is a mantissa round in the bit pattern rather than a
// decimal format: the fingerprint sits on the serving layer's cache-hit
// path, where formatting ~n·m floats would dominate the hash.
const fingerprintMantissaBits = 40

// Fingerprint returns a content-addressed identity of the instance: the
// hex SHA-256 of a canonical encoding. Two instances receive the same
// fingerprint exactly when they describe the same scheduling problem:
//
//   - task names are ignored (they never influence a schedule's shape),
//   - edge order and duplicate edges are ignored (the precedence relation
//     is a set),
//   - processing times are quantized to 12 significant digits, so float
//     noise below solver tolerance does not split cache entries.
//
// Task order is significant — edges refer to task indices, so permuting
// tasks genuinely changes the instance. Fingerprint does not validate; it
// is defined for any instance value, including invalid ones.
//
// The fingerprint is the cache key of the serving layer's content-addressed
// result cache (internal/server), combined there with the algorithm and
// parameter overrides of the request.
func (in *Instance) Fingerprint() string {
	h := sha256.New()
	var b block
	b.n = copy(b.buf[:], fingerprintVersion)
	b.uvarint(uint64(in.M))
	b.uvarint(uint64(len(in.Tasks)))
	for _, t := range in.Tasks {
		b.room(h, binary.MaxVarintLen64)
		b.uvarint(uint64(len(t.Times)))
		for _, p := range t.Times {
			b.room(h, 8)
			b.uint64(quantize(p))
		}
	}
	edges := prep.DedupEdges(in.Edges)
	b.room(h, binary.MaxVarintLen64)
	b.uvarint(uint64(len(edges)))
	for _, e := range edges {
		// Signed varints: edge endpoints are indices and should be
		// non-negative, but Fingerprint is total, so encode faithfully.
		b.room(h, 2*binary.MaxVarintLen64)
		b.varint(int64(e[0]))
		b.varint(int64(e[1]))
	}
	h.Write(b.buf[:b.n])
	return hex.EncodeToString(h.Sum(nil))
}

// structureFingerprintVersion tags the canonical structure encoding,
// independently of fingerprintVersion: the two encodings evolve separately
// (quantization changes bump the full fingerprint only).
const structureFingerprintVersion = "malsched-sfp-v1"

// StructureFingerprint returns a content-addressed identity of the
// instance's shape: the hex SHA-256 of a canonical encoding of everything
// except the processing-time values. Two instances share a structure
// fingerprint exactly when they have the same machine size, the same number
// of tasks, the same per-task Times vector lengths, and the same precedence
// relation (edge order and duplicates ignored, as in Fingerprint).
//
// Instances with equal structure fingerprints produce phase-1 LPs with
// identical row/column layouts under the lazy supporting-line formulation,
// which is what makes a cached simplex basis from one transplantable onto
// the other: the delta path of the v2 serving API accepts task edits
// against a cached base only when the structure fingerprints match.
func (in *Instance) StructureFingerprint() string {
	h := sha256.New()
	var b block
	b.n = copy(b.buf[:], structureFingerprintVersion)
	b.uvarint(uint64(in.M))
	b.uvarint(uint64(len(in.Tasks)))
	for _, t := range in.Tasks {
		b.room(h, binary.MaxVarintLen64)
		b.uvarint(uint64(len(t.Times)))
	}
	edges := prep.DedupEdges(in.Edges)
	b.room(h, binary.MaxVarintLen64)
	b.uvarint(uint64(len(edges)))
	for _, e := range edges {
		b.room(h, 2*binary.MaxVarintLen64)
		b.varint(int64(e[0]))
		b.varint(int64(e[1]))
	}
	h.Write(b.buf[:b.n])
	return hex.EncodeToString(h.Sum(nil))
}

// block buffers an encoding on its way to the digest: values are
// appended to a fixed array, and the digest gets one Write per full
// array instead of one per value (about 1,900 for a serve-shape
// Fingerprint). The byte stream, and so the digest, is the same. The
// callers make room before each append; room inlines, so its Write goes
// straight to the caller's sha256.New() and the block stays on the
// caller's stack.
type block struct {
	n   int
	buf [512]byte
}

// room writes the block out to h unless k more bytes fit.
func (b *block) room(h hash.Hash, k int) {
	if b.n+k > len(b.buf) {
		h.Write(b.buf[:b.n])
		b.n = 0
	}
}

func (b *block) uvarint(v uint64) { b.n += binary.PutUvarint(b.buf[b.n:], v) }

func (b *block) varint(v int64) { b.n += binary.PutVarint(b.buf[b.n:], v) }

func (b *block) uint64(v uint64) {
	binary.LittleEndian.PutUint64(b.buf[b.n:], v)
	b.n += 8
}

// quantize rounds p's mantissa to its top fingerprintMantissaBits bits,
// to-nearest with carry into the exponent (so a value a hair under a power
// of two rounds onto it, exactly like decimal rounding would). NaNs are
// canonicalized to one payload; infinities already have a zero mantissa and
// pass through unchanged; -0.0 is canonicalized to +0.0 — the two compare
// equal and schedule identically, so leaving the sign bit in place would
// split cache entries for the same scheduling problem.
//
//malsched:noalloc
func quantize(p float64) uint64 {
	if math.IsNaN(p) {
		return math.Float64bits(math.NaN())
	}
	if math.IsInf(p, 0) {
		return math.Float64bits(p)
	}
	if p == 0 {
		return 0 // fold -0.0 onto +0.0
	}
	const drop = 52 - fingerprintMantissaBits
	bits := math.Float64bits(p)
	bits += 1 << (drop - 1)
	bits &^= 1<<drop - 1
	return bits
}
