package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
)

// jsonNumber is the JSON number grammar, the tokens the scanner takes.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkNumber scans tok (after leading whitespace, which the scanner
// skips) as a float and as an int, and fails t unless each conversion
// takes exactly the tokens that strconv.ParseFloat or strconv.ParseInt
// parses without error within the JSON grammar, to the same float64 bits
// or the same int. The scan takes a token when it consumes all of it
// without failing.
func checkNumber(t testing.TB, tok []byte) {
	t.Helper()
	tok = bytes.TrimLeft(tok, " \t\n\r")
	grammar := jsonNumber.Match(tok)

	d := requestDecoder{b: tok}
	x := d.float()
	gotOK := !d.bad && d.i == len(tok)
	want, err := strconv.ParseFloat(string(tok), 64)
	if wantOK := grammar && err == nil; gotOK != wantOK {
		t.Fatalf("float %q: scan accepts %v, strconv %v (%v)", tok, gotOK, wantOK, err)
	}
	if gotOK && math.Float64bits(x) != math.Float64bits(want) {
		t.Fatalf("float %q: scan %v (%#016x), strconv %v (%#016x)", tok, x, math.Float64bits(x), want, math.Float64bits(want))
	}

	d = requestDecoder{b: tok}
	k := d.int()
	gotOK = !d.bad && d.i == len(tok)
	wantK, err := strconv.ParseInt(string(tok), 10, 64)
	if wantOK := grammar && err == nil && int64(int(wantK)) == wantK; gotOK != wantOK {
		t.Fatalf("int %q: scan accepts %v, strconv %v (%v)", tok, gotOK, wantOK, err)
	}
	if gotOK && int64(k) != wantK {
		t.Fatalf("int %q: scan %d, strconv %d", tok, k, wantK)
	}
}

// FuzzDecodeNumber checks the request decoder's number conversions
// against strconv on arbitrary bytes (checkNumber): the same decision
// and the same float64 bits, which tells -0 from +0 where FuzzDecodeV2's
// reflect.DeepEqual does not. The seeds are halfway and near-halfway
// values, significands of 19 and 20 digits, leading-zero fractions,
// exponents past every range, and forms strconv takes outside JSON.
func FuzzDecodeNumber(f *testing.F) {
	for _, tok := range []string{
		"0", "1", "-1", "2.5", "1E+2", "3.141592653589793", "16", "-7.25e-3",
		// Halfway and near-halfway cases, the smallest and largest normals
		// and the subnormal edge.
		"9007199254740993", "9007199254740992", "9007199254740994.5",
		"2.2250738585072011e-308", "2.2250738585072014e-308",
		"4.9406564584124654e-324", "2.4703282292062327e-324",
		"1e23", "8.98846567431158e307", "1.7976931348623157e308",
		"1.7976931348623158e308", "1.7976931348623159e308",
		"7.3177701707893310e+15", "1.00000000000000011102230246251565404236316680908203125",
		// 19- and 20-digit significands, with and without trailing zeros.
		"1234567890123456789", "12345678901234567890", "12345678901234567800",
		"9999999999999999999", "99999999999999999999", "10000000000000000000",
		"123456789012345678", "999999999999999999", "1000000000000000000",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "1234567890123456789.0", "0.12345678901234567890",
		"1.2345678901234567891e-5", "12345678901234567890e-20",
		// Leading-zero fractions.
		"0.000123", "0.0000000000000000000000001234567890123456789", "0.0",
		"-0.000", "0.1", "0.30000000000000004",
		// Signed zeros and exponents past every range.
		"-0", "0e999", "-0e-999", "1e400", "-1e400", "1e-400", "1e99999",
		"1e-99999", "1e123456", "0.1e-100000", "1e00000000000000000000308",
		"1e+348", "1e-348", "1e347", "1e-349", "1e-343",
		// Forms strconv takes but JSON does not, and broken tokens.
		"+1", ".5", "1.", "01", "-01", "00", "0x1p3", "1_000", "Inf", "-Inf",
		"NaN", "1e", "1e+", "1e-", "-", "", " ", " 12", "1.5x", "1.5,",
		"1.e5", "1e5.5", "--1", "1ee5",
	} {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, tok []byte) { checkNumber(t, tok) })
}

// TestNumberConversionExact converts random float64 values written in
// strconv's 'g', 'e' and 'f' forms, in encoding/json's, and with a
// random number of digits (near-halfway decimals), plus random ints,
// and checks each against strconv (checkNumber). The values are drawn
// uniform in [0, 1), from random bit patterns, log-uniform over the
// whole range, and as integers over powers of ten.
func TestNumberConversionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	draws := []func() float64{
		rng.Float64,
		func() float64 {
			for {
				if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
					return x
				}
			}
		},
		func() float64 { return math.Pow(10, -330+638.2*rng.Float64()) },
		func() float64 { return float64(rng.Int63n(1e16)) / math.Pow(10, float64(rng.Intn(30))) },
	}
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		x := draws[i%len(draws)]()
		if rng.Intn(2) == 0 {
			x = -x
		}
		for _, form := range []byte{'g', 'e', 'f'} {
			checkNumber(t, strconv.AppendFloat(nil, x, form, -1, 64))
		}
		checkNumber(t, strconv.AppendFloat(nil, x, 'e', rng.Intn(25), 64))
		raw, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		checkNumber(t, raw)
		checkNumber(t, strconv.AppendInt(nil, rng.Int63()>>rng.Intn(63)-rng.Int63()>>rng.Intn(63), 10))
	}
}

// TestNumberScanDecidesServeTimes: every processing time of every
// canonical instance, as encoding/json writes it, is decided by the
// scan's own conversion. A conversion that handed every token to strconv
// would pass FuzzDecodeNumber and gain nothing.
func TestNumberScanDecidesServeTimes(t *testing.T) {
	tokens := 0
	for name, in := range canonicalInstances(t) {
		for _, task := range in.Tasks {
			for _, p := range task.Times {
				raw, err := json.Marshal(p)
				if err != nil {
					t.Fatal(err)
				}
				d := requestDecoder{b: raw}
				if _, n := d.number(); d.bad {
					t.Fatalf("%s: %s does not scan", name, raw)
				} else if _, ok := n.float64(); !ok {
					t.Errorf("%s: %s goes to strconv", name, raw)
				}
				tokens++
			}
		}
	}
	if tokens == 0 {
		t.Fatal("no processing times")
	}
}

// TestPow10Table checks every row of the power-of-ten table against its
// definition in big.Int arithmetic: the row R has 128 bits and
// R ≤ 10^q·2^-e < R+1 for e = floor(q·log2 10) - 127, the binary exponent
// eiselLemire64 gives it. Known rows, strconv's, pin both ends, the
// powers around 1 and 1e43.
func TestPow10Table(t *testing.T) {
	two, ten := big.NewInt(2), big.NewInt(10)
	pow := func(b *big.Int, k int) *big.Int { return new(big.Int).Exp(b, big.NewInt(int64(k)), nil) }
	for q := pow10Min; q <= pow10Max; q++ {
		row := pow10[q-pow10Min]
		r := new(big.Int).Lsh(new(big.Int).SetUint64(row[0]), 64)
		r.Or(r, new(big.Int).SetUint64(row[1]))
		if r.BitLen() != 128 {
			t.Fatalf("1e%d: row %#x has %d bits", q, r, r.BitLen())
		}
		// 10^q·2^-e = num/den with both sides integers.
		e := 217706*q>>16 - 127
		num := new(big.Int).Mul(pow(ten, max(q, 0)), pow(two, max(-e, 0)))
		den := new(big.Int).Mul(pow(ten, max(-q, 0)), pow(two, max(e, 0)))
		lo := new(big.Int).Mul(r, den)
		hi := new(big.Int).Add(lo, den)
		if lo.Cmp(num) > 0 || num.Cmp(hi) >= 0 {
			t.Fatalf("1e%d: row %#x is not the floor of 10^q·2^%d", q, r, -e)
		}
	}
	for _, k := range []struct {
		q      int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if row := pow10[k.q-pow10Min]; row != [2]uint64{k.hi, k.lo} {
			t.Errorf("1e%d: row %016X_%016X, want %016X_%016X", k.q, row[0], row[1], k.hi, k.lo)
		}
	}
}
