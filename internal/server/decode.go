// Request decoding. Every POST endpoint decodes its body through
// decodeBody: the capped body is read into a pooled buffer, a body in the
// canonical form of its envelope (what json.Marshal emits for
// SolveRequest, SolveRequestV2, BatchRequest and BatchRequestV2) is
// decoded in one pass by the scanner below, and every other body goes to
// encoding/json's Decoder over the same bytes. The scanner never
// guesses: it produces what encoding/json would, or hands the bytes over,
// so encoding/json decides every rejection and every 400 message.
//
// The canonical form, and so the fast path, is: one object and then only
// whitespace; ASCII keys without escapes, each naming a field of its
// struct (ASCII case-insensitively, as encoding/json matches them) at
// most once; strings without escapes or control bytes and in valid
// UTF-8; numbers in the JSON grammar that strconv parses without error
// (ParseFloat for floats, ParseInt for ints); true and false for
// booleans; null only where encoding/json stores nil (the pointers and
// the slices); edges of exactly two ints. Anything else (an unknown,
// repeated, escaped or non-ASCII key, an escape in a string, null on a
// scalar or an edge, an edge of one or three ints, a top-level value that
// is not an object, trailing bytes) is encoding/json's to decide.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"

	"malsched"
)

// maxPooledBytes bounds each buffer a decoder takes back to the pool: one
// huge request must not pin its body for the daemon's lifetime.
const maxPooledBytes = 1 << 20

// decoders pools request decoders. A decoder's buffers never escape a
// call: everything decoded is copied out of them.
var decoders = sync.Pool{New: func() any { return new(requestDecoder) }}

// decodeBody decodes the request body into v under the server's body cap,
// writing the error response (JSON 413 on overflow, 400 otherwise) itself
// when it reports false.
//
// The body is read to its end first. encoding/json's Decoder stops at the
// end of the first value, so an object that ends inside the cap decodes
// whatever follows it: a read that overruns the cap still decodes what it
// read, and the answer is 413 only when that decode runs out of input.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, hint := r.Body, r.ContentLength
	if s.maxBody > 0 {
		body = http.MaxBytesReader(w, body, s.maxBody)
		hint = min(hint, s.maxBody)
	}
	d := decoders.Get().(*requestDecoder)
	var readErr error
	d.body, readErr = readBody(d.body[:0], body, hint)
	err := d.decode(d.body, readErr, v)
	d.release()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// readBody appends everything r yields to buf and returns the error that
// ended the read, nil at EOF. hint (the request's Content-Length, -1 when
// unknown) sizes buf up front when it fits the pool.
func readBody(buf []byte, r io.Reader, hint int64) ([]byte, error) {
	if hint >= int64(cap(buf)) && hint < maxPooledBytes {
		buf = make([]byte, 0, hint+1) // +1: reading EOF needs no growth
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errReader fails every read with err: it replays the error that ended a
// body read to encoding/json after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// requestDecoder is a pooled one-pass scanner for request envelopes. Its
// scratch (times, names, spans, edges) is reused per instance or edit
// list and copied out into exact-size allocations at the list's end.
type requestDecoder struct {
	body []byte // the last body read by decodeBody

	b   []byte // the bytes being scanned
	i   int    // scan position in b
	bad bool   // the body is not canonical; i sits at len(b)

	times []float64
	names []byte
	spans []span
	edges [][2]int
}

// span locates one task or edit of the list being scanned in the scratch.
type span struct {
	task           int // an edit's task index
	name0, name1   int // a task's name in names
	times0, times1 int // its times in times
	timesNil       bool
}

// decode decodes one request envelope from body into v: in one pass when
// body is canonical and was read to its end (readErr nil), otherwise with
// encoding/json over the same bytes followed by readErr. The fast path
// writes v only when it accepts, so the fallback starts from the caller's
// v either way.
func (d *requestDecoder) decode(body []byte, readErr error, v any) error {
	if readErr == nil && d.fast(body, v) {
		return nil
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	return json.NewDecoder(src).Decode(v)
}

// release returns d to the pool, dropping any buffer past maxPooledBytes.
func (d *requestDecoder) release() {
	d.b = nil
	d.body = reuse(d.body)
	d.times = reuse(d.times)
	d.names = reuse(d.names)
	d.spans = reuse(d.spans)
	d.edges = reuse(d.edges)
	decoders.Put(d)
}

// reuse empties s for the pool, or drops it when its backing array holds
// more than maxPooledBytes.
func reuse[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > maxPooledBytes {
		return nil
	}
	return s[:0]
}

// field names one member of a request envelope.
type field uint16

const (
	fInstance field = 1 << iota
	fInstances
	fBase
	fEdits
	fAlgo
	fDeadlineMS
	fRho
	fMu
	fNoCache
	fIncludeSchedule
	fFormulation

	sharedFields  = fAlgo | fDeadlineMS | fRho | fMu | fNoCache | fIncludeSchedule
	solveFields   = fInstance | sharedFields
	solveV2Fields = solveFields | fBase | fEdits | fFormulation
	batchFields   = fInstances | sharedFields
	batchV2Fields = batchFields | fFormulation
)

// envelopeKeys are the envelopes' JSON keys, lower-cased for fold.
var envelopeKeys = [...]struct {
	name string
	f    field
}{
	{"instance", fInstance}, {"instances", fInstances}, {"base", fBase},
	{"edits", fEdits}, {"algo", fAlgo}, {"deadline_ms", fDeadlineMS},
	{"rho", fRho}, {"mu", fMu}, {"no_cache", fNoCache},
	{"include_schedule", fIncludeSchedule}, {"formulation", fFormulation},
}

// envelope holds every member of the four request envelopes.
type envelope struct {
	SolveRequestV2
	instances []*malsched.Instance
}

// fast decodes a canonical body into v, one of the four envelope types,
// and reports whether it did; it leaves v untouched otherwise.
func (d *requestDecoder) fast(body []byte, v any) bool {
	var allowed field
	switch v.(type) {
	case *SolveRequest:
		allowed = solveFields
	case *SolveRequestV2:
		allowed = solveV2Fields
	case *BatchRequest:
		allowed = batchFields
	case *BatchRequestV2:
		allowed = batchV2Fields
	}
	if allowed == 0 {
		return false
	}
	d.b, d.i, d.bad = body, 0, false
	e := d.envelope(allowed)
	if d.peek(); d.bad || d.i != len(d.b) {
		return false
	}
	switch v := v.(type) {
	case *SolveRequest:
		*v = SolveRequest{
			Instance: e.Instance, Algo: e.Algo, DeadlineMS: e.DeadlineMS, Rho: e.Rho, Mu: e.Mu,
			NoCache: e.NoCache, IncludeSchedule: e.IncludeSchedule,
		}
	case *SolveRequestV2:
		*v = e.SolveRequestV2
	case *BatchRequest:
		*v = BatchRequest{
			Instances: e.instances, Algo: e.Algo, DeadlineMS: e.DeadlineMS, Rho: e.Rho, Mu: e.Mu,
			NoCache: e.NoCache, IncludeSchedule: e.IncludeSchedule,
		}
	case *BatchRequestV2:
		*v = BatchRequestV2{
			Instances: e.instances, Algo: e.Algo, DeadlineMS: e.DeadlineMS, Rho: e.Rho, Mu: e.Mu,
			NoCache: e.NoCache, IncludeSchedule: e.IncludeSchedule, Formulation: e.Formulation,
		}
	}
	return true
}

// envelope scans a request object whose keys must name fields in allowed.
func (d *requestDecoder) envelope(allowed field) (e envelope) {
	var seen field
	for more := d.open('{', '}'); more; more = d.more('}') {
		key, f := d.key(), field(0)
		for _, k := range envelopeKeys {
			if fold(key, k.name) {
				f = k.f & allowed
				break
			}
		}
		if f == 0 || seen&f != 0 {
			d.fail()
			break
		}
		seen |= f
		switch f {
		case fInstance:
			e.Instance = d.instance()
		case fInstances:
			if !d.null() {
				e.instances = []*malsched.Instance{}
				for more := d.open('[', ']'); more; more = d.more(']') {
					e.instances = append(e.instances, d.instance())
				}
			}
		case fBase:
			e.Base = d.string()
		case fEdits:
			e.Edits = d.taskEdits()
		case fAlgo:
			e.Algo = d.string()
		case fDeadlineMS:
			e.DeadlineMS = d.float()
		case fRho:
			if !d.null() {
				rho := d.float()
				e.Rho = &rho
			}
		case fMu:
			if !d.null() {
				mu := d.int()
				e.Mu = &mu
			}
		case fNoCache:
			e.NoCache = d.bool()
		case fIncludeSchedule:
			e.IncludeSchedule = d.bool()
		case fFormulation:
			e.Formulation = d.string()
		}
	}
	return e
}

// instance scans an instance object, or null for a nil pointer. Its tasks
// share one times slab and one names string, each allocated at its exact
// size, and its edges one exact-size slice.
func (d *requestDecoder) instance() *malsched.Instance {
	if d.null() {
		return nil
	}
	in := new(malsched.Instance)
	var seen uint8
	for more := d.open('{', '}'); more; more = d.more('}') {
		switch key := d.key(); {
		case fold(key, "m") && seen&1 == 0:
			seen |= 1
			in.M = d.int()
		case fold(key, "tasks") && seen&2 == 0:
			seen |= 2
			in.Tasks = d.tasks()
		case fold(key, "edges") && seen&4 == 0:
			seen |= 4
			in.Edges = d.edgeList()
		default:
			d.fail()
		}
	}
	return in
}

// tasks scans a task list ({"Name": ..., "Times": [...]} objects), or null.
func (d *requestDecoder) tasks() []malsched.Task {
	if d.null() {
		return nil
	}
	d.times, d.names, d.spans = d.times[:0], d.names[:0], d.spans[:0]
	for more := d.open('[', ']'); more; more = d.more(']') {
		sp := span{name0: len(d.names), times0: len(d.times), timesNil: true}
		var seen uint8
		for more := d.open('{', '}'); more; more = d.more('}') {
			switch key := d.key(); {
			case fold(key, "name") && seen&1 == 0:
				seen |= 1
				d.names = append(d.names, d.str()...)
			case fold(key, "times") && seen&2 == 0:
				seen |= 2
				sp.timesNil = !d.floats()
			default:
				d.fail()
			}
		}
		sp.name1, sp.times1 = len(d.names), len(d.times)
		d.spans = append(d.spans, sp)
	}
	if d.bad {
		return nil
	}
	tasks := make([]malsched.Task, len(d.spans))
	slab := d.slab()
	names := string(d.names)
	for j, sp := range d.spans {
		tasks[j] = malsched.Task{Name: names[sp.name0:sp.name1], Times: sp.in(slab)}
	}
	return tasks
}

// taskEdits scans an edit list ({"task": ..., "times": [...]} objects), or
// null. The edits share one times slab.
func (d *requestDecoder) taskEdits() []TaskEdit {
	if d.null() {
		return nil
	}
	d.times, d.spans = d.times[:0], d.spans[:0]
	for more := d.open('[', ']'); more; more = d.more(']') {
		sp := span{times0: len(d.times), timesNil: true}
		var seen uint8
		for more := d.open('{', '}'); more; more = d.more('}') {
			switch key := d.key(); {
			case fold(key, "task") && seen&1 == 0:
				seen |= 1
				sp.task = d.int()
			case fold(key, "times") && seen&2 == 0:
				seen |= 2
				sp.timesNil = !d.floats()
			default:
				d.fail()
			}
		}
		sp.times1 = len(d.times)
		d.spans = append(d.spans, sp)
	}
	if d.bad {
		return nil
	}
	edits := make([]TaskEdit, len(d.spans))
	slab := d.slab()
	for i, sp := range d.spans {
		edits[i] = TaskEdit{Task: sp.task, Times: sp.in(slab)}
	}
	return edits
}

// slab copies the times scratch into one exact-size allocation, non-nil
// even when empty.
func (d *requestDecoder) slab() []float64 {
	return append(make([]float64, 0, len(d.times)), d.times...)
}

// in returns sp's times within slab: nil for a null or absent vector,
// and a full slice expression, so an append to one task's times cannot
// write into the next task's.
func (sp *span) in(slab []float64) []float64 {
	if sp.timesNil {
		return nil
	}
	return slab[sp.times0:sp.times1:sp.times1]
}

// floats appends a number array to the times scratch and reports true, or
// consumes null and reports false.
func (d *requestDecoder) floats() bool {
	if d.null() {
		return false
	}
	for more := d.open('[', ']'); more; more = d.more(']') {
		d.times = append(d.times, d.float())
	}
	return true
}

// edgeList scans an edge list of [i, j] pairs, or null.
func (d *requestDecoder) edgeList() [][2]int {
	if d.null() {
		return nil
	}
	d.edges = d.edges[:0]
	for more := d.open('[', ']'); more; more = d.more(']') {
		var e [2]int
		d.expect('[')
		e[0] = d.int()
		d.expect(',')
		e[1] = d.int()
		d.expect(']')
		d.edges = append(d.edges, e)
	}
	if d.bad {
		return nil
	}
	return append(make([][2]int, 0, len(d.edges)), d.edges...)
}

// fail marks the body non-canonical and moves to its end, where every
// scanning loop stops.
func (d *requestDecoder) fail() {
	d.bad = true
	d.i = len(d.b)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *requestDecoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes the byte c after whitespace, or fails.
func (d *requestDecoder) expect(c byte) {
	if d.peek() == c {
		d.i++
		return
	}
	d.fail()
}

// open consumes the opening byte of an object or array and reports
// whether a member follows; an empty container's closing byte is
// consumed too.
func (d *requestDecoder) open(open, close byte) bool {
	d.expect(open)
	if d.peek() == close {
		d.i++
		return false
	}
	return !d.bad
}

// more consumes what follows a member or element: a comma before another
// one (true) or the closing byte (false).
func (d *requestDecoder) more(close byte) bool {
	switch d.peek() {
	case ',':
		d.i++
		return true
	case close:
		d.i++
		return false
	}
	d.fail()
	return false
}

// literal consumes lit (null, true or false) after whitespace and reports
// whether it was there.
func (d *requestDecoder) literal(lit string) bool {
	d.peek()
	if end := d.i + len(lit); end <= len(d.b) && string(d.b[d.i:end]) == lit {
		d.i = end
		return true
	}
	return false
}

func (d *requestDecoder) null() bool { return d.peek() == 'n' && d.literal("null") }

func (d *requestDecoder) bool() bool {
	if d.literal("true") {
		return true
	}
	if !d.literal("false") {
		d.fail()
	}
	return false
}

// str scans a string without escapes or control bytes in valid UTF-8,
// which encoding/json returns unchanged, and returns its bytes (aliasing
// the body).
func (d *requestDecoder) str() []byte {
	if d.peek() != '"' {
		d.fail()
		return nil
	}
	start, ascii := d.i+1, true
	for i := start; i < len(d.b); i++ {
		c := d.b[i]
		if c == '"' {
			s := d.b[start:i]
			if ascii || utf8.Valid(s) {
				d.i = i + 1
				return s
			}
			break
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	d.fail()
	return nil
}

// string scans a string value into a fresh Go string.
func (d *requestDecoder) string() string { return string(d.str()) }

// key scans an ASCII object key and the colon after it.
func (d *requestDecoder) key() []byte {
	k := d.str()
	for _, c := range k {
		if c >= utf8.RuneSelf {
			d.fail()
			return nil
		}
	}
	d.expect(':')
	return k
}

// fold reports whether the ASCII key equals name (lower case) up to ASCII
// case, which is how encoding/json matches an ASCII key to a field.
func fold(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// number is a scanned number token, read as strconv's readFloat reads
// it: its first 19 significant digits and the decimal exponent of the
// last of them, so its value is man·10^exp unless trunc.
type number struct {
	man   uint64
	exp   int
	neg   bool
	trunc bool // a nonzero digit past the 19th was dropped
	point bool // the token has a fraction or an exponent
}

// number scans a token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which strconv parses
// exactly as encoding/json does (strconv alone would also take Inf, hex
// and underscores), and reads its digits in the same pass. Leading zeros
// of a fraction are not significant, and exponent digits past 10000 are
// dropped as strconv drops them: the value is then out of every range
// either way.
//
//malsched:noalloc
func (d *requestDecoder) number() (tok []byte, n number) {
	d.peek()
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	exp, nd, trunc := 0, 0, false // nd counts the significant digits in man
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := i
		i, man, nd, trunc = digits(b, i, 0, 0)
		exp = i - j - nd // digits past the 19th scale man up
	default:
		d.fail()
		return nil, n
	}
	point := false
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		exp -= i - j
		nd0, dropped := nd, false
		i, man, nd, dropped = digits(b, i, man, nd)
		if i == j {
			d.fail()
			return nil, n
		}
		exp -= nd - nd0
		trunc = trunc || dropped
		point = true
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || eneg) {
			i++
		}
		j, e := i, 0
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if e < 10000 {
				e = e*10 + int(c)
			}
		}
		if i == j {
			d.fail()
			return nil, n
		}
		if eneg {
			e = -e
		}
		exp += e
		point = true
	}
	tok = b[d.i:i]
	d.i = i
	return tok, number{man: man, exp: exp, neg: neg, trunc: trunc, point: point}
}

// digits reads the digits of b from i on into man, which holds nd
// significant digits, up to 19 of them. It returns the index past the
// digits, man and nd, and whether it dropped a nonzero digit.
//
//malsched:noalloc
func digits(b []byte, i int, man uint64, nd int) (int, uint64, int, bool) {
	trunc := false
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		if nd < 19 {
			man = man*10 + uint64(c)
			nd++
		} else {
			trunc = trunc || c != 0
		}
	}
	return i, man, nd, trunc
}

// float64 returns n's value when one of strconv's exact fast algorithms
// decides it, and false when only strconv.ParseFloat can: more than 19
// significant digits, an exponent outside the table, a halfway case, or
// a result at the subnormal or overflow edge.
//
//malsched:noalloc
func (n *number) float64() (float64, bool) {
	if n.trunc {
		return 0, false
	}
	if f, ok := atof64exact(n.man, n.exp, n.neg); ok {
		return f, true
	}
	return eiselLemire64(n.man, n.exp, n.neg)
}

// float scans a number into a float64: the scan's own value when it is
// decided, else strconv.ParseFloat's, whose error (out of range) makes
// the body not canonical.
func (d *requestDecoder) float() float64 {
	tok, n := d.number()
	if d.bad {
		return 0
	}
	if x, ok := n.float64(); ok {
		return x
	}
	x, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail()
	}
	return x
}

// int scans a number into an int: a fraction, an exponent or a value out
// of int's range is not canonical. Up to 18 digits the scan's own value
// is exact; 19 or more go to strconv.ParseInt.
func (d *requestDecoder) int() int {
	tok, n := d.number()
	if d.bad || n.point {
		d.fail()
		return 0
	}
	if n.exp == 0 && n.man < 1e18 {
		if n.neg {
			return -int(n.man)
		}
		return int(n.man)
	}
	x, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(x)) != x {
		d.fail()
	}
	return int(x)
}
