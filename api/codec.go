package api

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1 wire codec. This file owns the JSON form of the bodies every match
// carries: MatchResponse (with SubgraphJSON, StatsJSON, QueryStatsJSON and
// PartialJSON) and MatchRequest. It has three parts:
//
//   - an appender that writes exactly the bytes encoding/json writes for the
//     method-less types (field order, omitempty, a Rel as a map keyed by its
//     indices, encoding/json's float format and HTML-safe string escapes);
//   - a schema decoder for responses, which the client SDK and through it
//     the router's fan-out read with;
//   - a schema decoder for requests, which /v1/match and /v1/match/stream
//     read with.
//
// The decoders take any whitespace and key order, skip unknown keys, treat
// null as encoding/json does and unescape strings in full. They refuse —
// and the caller falls back to encoding/json on a method-less alias type —
// whatever they are not sure to decode to encoding/json's value: malformed
// JSON, trailing bytes, an escaped or non-lowercase key (encoding/json
// matches keys case-insensitively), a key given twice (encoding/json merges
// the second into the first), a number that is not an integer where an int
// goes or does not fit, a nesting deeper than maxSkipDepth. So every body
// decodes to the value encoding/json gives it, and a malformed one fails
// with encoding/json's error.

// MarshalJSON writes r as encoding/json writes the type without the method.
func (r MatchResponse) MarshalJSON() ([]byte, error) {
	return appendMatchResponse(nil, &r)
}

// MarshalJSON writes s as encoding/json writes the type without the method.
func (s SubgraphJSON) MarshalJSON() ([]byte, error) {
	e := encoder{}
	e.subgraph(&s)
	return e.b, e.err
}

// UnmarshalJSON decodes a response body with the schema decoder, or with
// encoding/json where it refuses. Into a non-zero value, where encoding/json
// merges, it is encoding/json throughout.
func (r *MatchResponse) UnmarshalJSON(data []byte) error {
	if r.Matches == nil && r.Stats == (StatsJSON{}) && r.QueryStats == nil && r.Partial == nil &&
		math.Float64bits(r.ElapsedMS) == 0 {
		if decodeMatchResponse(data, r) {
			return nil
		}
		*r = MatchResponse{}
	}
	return aliasError(json.Unmarshal(data, (*matchResponseAlias)(r)))
}

// UnmarshalJSON decodes one subgraph as MatchResponse.UnmarshalJSON does.
func (s *SubgraphJSON) UnmarshalJSON(data []byte) error {
	if s.Center == 0 && s.Score == nil && s.Nodes == nil && s.Edges == nil && s.Rel == nil {
		if decodeWhole(data, s, (*decoder).subgraph) {
			return nil
		}
		*s = SubgraphJSON{}
	}
	return aliasError(json.Unmarshal(data, (*subgraphAlias)(s)))
}

// MarshalJSON writes r as encoding/json writes the map from each index of r,
// in decimal, to its row.
func (r Rel) MarshalJSON() ([]byte, error) {
	e := encoder{}
	e.rel(r)
	return e.b, nil
}

// UnmarshalJSON decodes a rel with the schema decoder, or where it refuses
// with encoding/json into a map whose keys must then be "0" to "n-1" in
// canonical decimal; any other key set is an error. A rel given twice
// decodes to the last one, not to a merge.
func (r *Rel) UnmarshalJSON(data []byte) error {
	if decodeWhole(data, r, (*decoder).rel) {
		return nil
	}
	var m map[string][]int32 // not nil once decoded: null is the schema decoder's
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*r = make(Rel, len(m))
	for k, row := range m {
		u, err := strconv.Atoi(k)
		if err != nil || u < 0 || u >= len(m) || strconv.Itoa(u) != k {
			return fmt.Errorf("api: rel key %q is not a pattern node index 0 to %d", k, len(m)-1)
		}
		(*r)[u] = row
	}
	return nil
}

// UnmarshalJSON decodes a request body as MatchResponse.UnmarshalJSON does.
func (r *MatchRequest) UnmarshalJSON(data []byte) error {
	if r.Pattern == nil && r.PatternText == "" && r.Query == (QuerySpec{}) {
		if decodeMatchRequest(data, r) {
			return nil
		}
		*r = MatchRequest{}
	}
	return aliasError(json.Unmarshal(data, (*matchRequestAlias)(r)))
}

// The method-less aliases encoding/json decodes with where the schema
// decoders refuse.
type (
	matchResponseAlias MatchResponse
	subgraphAlias      SubgraphJSON
	matchRequestAlias  MatchRequest
)

// aliasNames maps each alias to the type it stands for, so encoding/json's
// type errors name the wire type as they did before the aliases existed.
var aliasNames = map[reflect.Type]reflect.Type{
	reflect.TypeFor[matchResponseAlias](): reflect.TypeFor[MatchResponse](),
	reflect.TypeFor[subgraphAlias]():      reflect.TypeFor[SubgraphJSON](),
	reflect.TypeFor[matchRequestAlias]():  reflect.TypeFor[MatchRequest](),
}

// aliasError renames an alias in an encoding/json type error.
func aliasError(err error) error {
	ute, ok := err.(*json.UnmarshalTypeError)
	if !ok {
		return err
	}
	for alias, real := range aliasNames {
		if ute.Type == alias {
			ute.Type = real
		}
		if ute.Struct == alias.Name() {
			ute.Struct = real.Name()
		}
	}
	return err
}

// ---- the appender ----

// appendMatchResponse appends r's JSON form to b.
func appendMatchResponse(b []byte, r *MatchResponse) ([]byte, error) {
	e := encoder{b: b}
	e.matchResponse(r)
	return e.b, e.err
}

// encoder appends JSON; err records the first value JSON cannot carry (a
// NaN or infinite float), as encoding/json refuses it.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) matchResponse(r *MatchResponse) {
	e.b = append(e.b, `{"matches":`...)
	if r.Matches == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Matches {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.subgraph(&r.Matches[i])
		}
		e.b = append(e.b, ']')
	}
	st := &r.Stats
	e.b = append(e.b, `,"stats":{"balls_examined":`...)
	e.b = strconv.AppendInt(e.b, int64(st.BallsExamined), 10)
	e.b = append(e.b, `,"balls_skipped":`...)
	e.b = strconv.AppendInt(e.b, int64(st.BallsSkipped), 10)
	e.b = append(e.b, `,"pairs_removed":`...)
	e.b = strconv.AppendInt(e.b, int64(st.PairsRemoved), 10)
	e.b = append(e.b, `,"duplicates":`...)
	e.b = strconv.AppendInt(e.b, int64(st.Duplicates), 10)
	if st.MinimizedFrom != 0 {
		e.b = append(e.b, `,"minimized_from":`...)
		e.b = strconv.AppendInt(e.b, int64(st.MinimizedFrom), 10)
	}
	e.b = append(e.b, '}')
	if qs := r.QueryStats; qs != nil {
		e.b = append(e.b, `,"query_stats":{"candidate_centers":`...)
		e.b = strconv.AppendInt(e.b, int64(qs.CandidateCenters), 10)
		e.b = append(e.b, `,"balls_built":`...)
		e.b = strconv.AppendInt(e.b, int64(qs.BallsBuilt), 10)
		e.b = append(e.b, `,"ball_nodes":`...)
		e.b = strconv.AppendInt(e.b, qs.BallNodes, 10)
		e.b = append(e.b, `,"ball_edges":`...)
		e.b = strconv.AppendInt(e.b, qs.BallEdges, 10)
		e.b = append(e.b, `,"prepare_ms":`...)
		e.float(qs.PrepareMS)
		e.b = append(e.b, `,"filter_ms":`...)
		e.float(qs.FilterMS)
		e.b = append(e.b, `,"eval_ms":`...)
		e.float(qs.EvalMS)
		e.b = append(e.b, `,"merge_ms":`...)
		e.float(qs.MergeMS)
		if qs.PlanCache != "" {
			e.b = append(e.b, `,"plan_cache":`...)
			e.string(qs.PlanCache)
		}
		e.b = append(e.b, '}')
	}
	if p := r.Partial; p != nil {
		e.b = append(e.b, `,"partial":{"failed_shards":`...)
		if p.FailedShards == nil {
			e.b = append(e.b, "null"...)
		} else {
			e.b = append(e.b, '[')
			for i, s := range p.FailedShards {
				if i > 0 {
					e.b = append(e.b, ',')
				}
				e.b = strconv.AppendInt(e.b, int64(s), 10)
			}
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, `,"missing_nodes":`...)
		e.b = strconv.AppendInt(e.b, int64(p.MissingNodes), 10)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, `,"elapsed_ms":`...)
	e.float(r.ElapsedMS)
	e.b = append(e.b, '}')
}

func (e *encoder) subgraph(s *SubgraphJSON) {
	e.b = append(e.b, `{"center":`...)
	e.int32(s.Center)
	if s.Score != nil {
		e.b = append(e.b, `,"score":`...)
		e.float(*s.Score)
	}
	e.b = append(e.b, `,"nodes":`...)
	e.int32s(s.Nodes)
	e.b = append(e.b, `,"edges":`...)
	if s.Edges == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, uv := range s.Edges {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, '[')
			e.int32(uv[0])
			e.b = append(e.b, ',')
			e.int32(uv[1])
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"rel":`...)
	e.rel(s.Rel)
	e.b = append(e.b, '}')
}

// rel writes r as encoding/json writes the map from each index, in decimal,
// to its row: keys sorted as strings, a preorder walk of their digits in
// which the key after u is u0, else the next sibling of u or of its nearest
// ancestor that has one below len(r) (0, 1, 10, 11, …, 19, 2, 20, …).
func (e *encoder) rel(r Rel) {
	if r == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '{')
	for i, u := 0, 0; i < len(r); i++ {
		if i > 0 {
			if u > 0 && u*10 < len(r) {
				u *= 10
			} else {
				for u%10 == 9 || u+1 >= len(r) {
					u /= 10
				}
				u++
			}
			e.b = append(e.b, ',')
		}
		e.b = append(strconv.AppendInt(append(e.b, '"'), int64(u), 10), '"', ':')
		e.int32s(r[u])
	}
	e.b = append(e.b, '}')
}

func (e *encoder) int32s(vs []int32) {
	if vs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, v := range vs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.int32(v)
	}
	e.b = append(e.b, ']')
}

// int32 writes v in decimal, two digits a step: strconv.AppendInt's digits
// without its base and size dispatch.
func (e *encoder) int32(v int32) {
	const pairs = "00010203040506070809" + "10111213141516171819" + "20212223242526272829" +
		"30313233343536373839" + "40414243444546474849" + "50515253545556575859" +
		"60616263646566676869" + "70717273747576777879" + "80818283848586878889" + "90919293949596979899"
	u := uint32(v)
	if v < 0 {
		e.b = append(e.b, '-')
		u = uint32(-int64(v))
	}
	var buf [10]byte
	i := len(buf)
	for u >= 100 {
		j := u % 100 * 2
		u /= 100
		i -= 2
		buf[i], buf[i+1] = pairs[j], pairs[j+1]
	}
	if u >= 10 {
		i -= 2
		buf[i], buf[i+1] = pairs[u*2], pairs[u*2+1]
	} else {
		i--
		buf[i] = byte('0' + u)
	}
	e.b = append(e.b, buf[i:]...)
}

// float writes f as encoding/json does: like ES6's number to string, 'f'
// format between 1e-6 and 1e21 and 'e' format with an unpadded exponent
// outside.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// string writes s quoted as encoding/json does with HTML escaping on:
// <, > and & as \u003c, \u003e and \u0026, control bytes as \u00XX unless
// they have a short escape, invalid UTF-8 as \ufffd, and U+2028 and U+2029
// escaped.
func (e *encoder) string(s string) {
	const hex = "0123456789abcdef"
	e.b = append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			e.b = append(e.b, s[start:i]...)
			switch c {
			case '\\', '"':
				e.b = append(e.b, '\\', c)
			case '\b':
				e.b = append(e.b, '\\', 'b')
			case '\f':
				e.b = append(e.b, '\\', 'f')
			case '\n':
				e.b = append(e.b, '\\', 'n')
			case '\r':
				e.b = append(e.b, '\\', 'r')
			case '\t':
				e.b = append(e.b, '\\', 't')
			default:
				e.b = append(e.b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	e.b = append(e.b, s[start:]...)
	e.b = append(e.b, '"')
}

// ---- the schema decoders ----

// decodeMatchResponse decodes a whole response body into the zero value r
// and reports whether it took the body. When it did not, r is left partly
// filled and must be zeroed before anything else decodes into it.
func decodeMatchResponse(data []byte, r *MatchResponse) bool {
	return decodeWhole(data, r, (*decoder).matchResponse)
}

// decodeMatchRequest is decodeMatchResponse for a request body.
func decodeMatchRequest(data []byte, r *MatchRequest) bool {
	return decodeWhole(data, r, (*decoder).matchRequest)
}

// decodeWhole reads data as one value, whitespace around it, into v.
func decodeWhole[T any](data []byte, v *T, read func(*decoder, *T) bool) bool {
	d := decoders.Get().(*decoder)
	d.data, d.pos, d.depth = data, 0, 0
	ok := read(d, v) && d.end()
	d.data = nil
	decoders.Put(d)
	return ok
}

// maxSkipDepth bounds the nesting of an unknown key's value; deeper values
// go to encoding/json.
const maxSkipDepth = 64

// decoder reads one JSON body. Every method reports whether the input was
// what the schema allows; false means refuse, never a partial accept.
type decoder struct {
	data  []byte
	pos   int
	depth int
	ints  []int32 // scratch for an int array, copied out at its exact length
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// consume reads c if it comes next.
func (d *decoder) consume(c byte) bool {
	if d.peek() == c {
		d.pos++
		return true
	}
	return false
}

// literal reads lit if it comes next.
func (d *decoder) literal(lit string) bool {
	d.peek()
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.literal("null") }

// end reports whether only whitespace is left.
func (d *decoder) end() bool { return d.peek() == 0 && d.pos == len(d.data) }

// unknown skips the value of a key the schema does not name. A key with an
// upper-case letter is refused: encoding/json may fold it onto a field.
func (d *decoder) unknown(key []byte) bool {
	for _, c := range key {
		if 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return d.skip()
}

// skip reads and validates any one value.
func (d *decoder) skip() bool {
	if d.depth++; d.depth > maxSkipDepth {
		return false
	}
	defer func() { d.depth-- }()
	switch d.peek() {
	case '{':
		d.pos++
		for i := 0; ; i++ {
			c := d.peek()
			if c == '}' {
				d.pos++
				return true
			}
			if i > 0 {
				if c != ',' {
					return false
				}
				d.pos++
			}
			if !d.skipString() || !d.consume(':') || !d.skip() {
				return false
			}
		}
	case '[':
		d.pos++
		if d.consume(']') {
			return true
		}
		for {
			if !d.skip() {
				return false
			}
			if d.consume(']') {
				return true
			}
			if !d.consume(',') {
				return false
			}
		}
	case '"':
		return d.skipString()
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.null()
	default:
		_, _, ok := d.number()
		return ok
	}
}

// skipString reads and validates a string.
func (d *decoder) skipString() bool {
	if d.peek() != '"' {
		return false
	}
	for i := d.pos + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return true
		case c < ' ':
			return false
		case c == '\\':
			i++
			if i >= len(d.data) {
				return false
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if hex4(d.data[i+1:]) < 0 {
					return false
				}
				i += 4
			default:
				return false
			}
		}
	}
	return false
}

// str reads a string value.
func (d *decoder) str() (string, bool) {
	if d.peek() != '"' {
		return "", false
	}
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return string(d.data[start:i]), true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unquote(start)
		}
	}
	return "", false
}

// unquote reads the rest of a string that needs unescaping, as encoding/json
// unquotes: \uXXXX pairs joined into one rune, a lone surrogate and every
// byte of invalid UTF-8 replaced by U+FFFD.
func (d *decoder) unquote(start int) (string, bool) {
	b := make([]byte, 0, len(d.data)-start)
	i := start
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return string(b), true
		case c < ' ':
			return "", false
		case c == '\\':
			if i+1 >= len(d.data) {
				return "", false
			}
			switch esc := d.data[i+1]; esc {
			case '"', '\\', '/':
				b = append(b, esc)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i+2:])
				if r < 0 {
					return "", false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if len(d.data)-i >= 2 && d.data[i] == '\\' && d.data[i+1] == 'u' {
						r2 = hex4(d.data[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return "", false
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return "", false
}

// hex4 reads the four hex digits of a \u escape, -1 if they are not there.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number reads a JSON number and reports whether it is an integer literal.
func (d *decoder) number() (lit []byte, isInt, ok bool) {
	d.peek()
	i, n := d.pos, len(d.data)
	digits := func() bool {
		j := i
		for i < n && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < n && d.data[i] == '-' {
		i++
	}
	switch {
	case i < n && d.data[i] == '0':
		i++
	case !digits():
		return nil, false, false
	}
	isInt = true
	if i < n && d.data[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		isInt = false
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		isInt = false
	}
	lit, d.pos = d.data[d.pos:i], i
	return lit, isInt, true
}

// integer reads an integer literal in [lo, hi]. A fraction or an exponent
// is refused: encoding/json fails on those where an int goes.
func (d *decoder) integer(lo, hi int64) (int64, bool) {
	lit, isInt, ok := d.number()
	if !ok || !isInt {
		return 0, false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 19 { // no leading zeros: beyond any int64
		return 0, false
	}
	var u uint64 // 19 digits fit
	for _, c := range lit {
		u = u*10 + uint64(c-'0')
	}
	if neg && u > 1<<63 || !neg && u > math.MaxInt64 {
		return 0, false
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return v, lo <= v && v <= hi
}

// The field readers below decode null as encoding/json does: a slice, map
// or pointer becomes nil, anything else keeps its (zero) value.

func (d *decoder) int(p *int) bool {
	if d.null() {
		return true
	}
	v, ok := d.integer(math.MinInt, math.MaxInt)
	*p = int(v)
	return ok
}

func (d *decoder) int64(p *int64) bool {
	if d.null() {
		return true
	}
	v, ok := d.integer(math.MinInt64, math.MaxInt64)
	*p = v
	return ok
}

func (d *decoder) int32(p *int32) bool {
	if d.null() {
		return true
	}
	v, ok := d.integer(math.MinInt32, math.MaxInt32)
	*p = int32(v)
	return ok
}

func (d *decoder) float(p *float64) bool {
	if d.null() {
		return true
	}
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*p = f
	return err == nil
}

func (d *decoder) string(p *string) bool {
	if d.null() {
		return true
	}
	s, ok := d.str()
	*p = s
	return ok
}

func (d *decoder) bool(p *bool) bool {
	switch {
	case d.null():
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	default:
		return false
	}
	return true
}

func (d *decoder) int32s(p *[]int32) bool {
	if d.null() {
		*p = nil
		return true
	}
	if !d.consume('[') {
		return false
	}
	buf := d.ints[:0]
	if !d.consume(']') {
		for {
			var v int32
			if !d.int32(&v) {
				return false
			}
			buf = append(buf, v)
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	d.ints = buf
	*p = append(make([]int32, 0, len(buf)), buf...)
	return true
}

// rel reads a match relation keyed "0" to "n-1" in canonical decimal, each
// once, in any order. Rows are read as given, then cycled to their keys, so
// the relation holds the rows read whatever a key says. Any other key set is
// refused; so is a key given twice or escaped, which Rel.UnmarshalJSON takes.
func (d *decoder) rel(p *Rel) bool {
	if d.null() {
		*p = nil
		return true
	}
	if !d.consume('{') {
		return false
	}
	keys, rows := make([]int, 0, 16), make([][]int32, 0, 16)
	for !d.consume('}') {
		if len(keys) > 0 && !d.consume(',') {
			return false
		}
		u, ok := d.relKey()
		var row []int32
		if !ok || !d.consume(':') || !d.int32s(&row) {
			return false
		}
		keys, rows = append(keys, u), append(rows, row)
	}
	for i := range keys {
		for u := keys[i]; u != i; u = keys[i] {
			if u >= len(keys) || keys[u] == u {
				return false
			}
			keys[i], keys[u] = keys[u], keys[i]
			rows[i], rows[u] = rows[u], rows[i]
		}
	}
	*p = append(make(Rel, 0, len(rows)), rows...)
	return true
}

// relKey reads a key spelling an index in canonical decimal: "0", or one to
// nine digits not starting with 0.
func (d *decoder) relKey() (int, bool) {
	d.peek()
	lit := d.data[d.pos:]
	i, u := 1, 0
	for ; i < len(lit) && i <= 9 && '0' <= lit[i] && lit[i] <= '9'; i++ {
		u = u*10 + int(lit[i]-'0')
	}
	if i == 1 || i == len(lit) || lit[0] != '"' || lit[i] != '"' || i > 2 && lit[1] == '0' {
		return 0, false
	}
	d.pos += i + 1
	return u, true
}

// fields is the bit set of keys an object has given.
type fields uint16

// object reads null, which leaves the value as it is, or an object,
// handing each key to field, which reads the member's value and returns
// the bit naming the key (0 for a key the schema does not name). A key
// given twice is refused: encoding/json would merge the second value into
// the first. So is a key with an escape or a byte outside ASCII, which
// encoding/json would unescape and fold.
func (d *decoder) object(field func(key []byte) (fields, bool)) bool {
	if d.null() {
		return true
	}
	if !d.consume('{') {
		return false
	}
	var seen fields
	for i := 0; ; i++ {
		c := d.peek()
		if c == '}' {
			d.pos++
			return true
		}
		if i > 0 {
			if c != ',' {
				return false
			}
			d.pos++
			c = d.peek()
		}
		if c != '"' {
			return false
		}
		start, end := d.pos+1, -1
		for j := start; j < len(d.data) && end < 0; j++ {
			switch c := d.data[j]; {
			case c == '"':
				end = j
			case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
				return false
			}
		}
		if end < 0 {
			return false
		}
		d.pos = end + 1
		if !d.consume(':') {
			return false
		}
		bit, ok := field(d.data[start:end])
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// array reads null (a nil slice) or an array of values read by read.
func array[T any](d *decoder, p *[]T, read func(*decoder, *T) bool) bool {
	if d.null() {
		*p = nil
		return true
	}
	if !d.consume('[') {
		return false
	}
	out := []T{}
	if !d.consume(']') {
		for {
			var zero T
			out = append(out, zero)
			if !read(d, &out[len(out)-1]) {
				return false
			}
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	*p = out
	return true
}

// pointer reads null (a nil pointer) or a value read by read into a new T.
func pointer[T any](d *decoder, p **T, read func(*decoder, *T) bool) bool {
	if d.null() {
		*p = nil
		return true
	}
	*p = new(T)
	return read(d, *p)
}

// edge reads one [u, v] pair. A null pair stays {0, 0}; encoding/json fills
// a shorter array with zeros and drops a longer one's tail, which is refused.
func (d *decoder) edge(uv *[2]int32) bool {
	return d.null() || d.consume('[') && d.int32(&uv[0]) && d.consume(',') &&
		d.int32(&uv[1]) && d.consume(']')
}

func (d *decoder) matchResponse(r *MatchResponse) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "matches":
			return 1, array(d, &r.Matches, (*decoder).subgraph)
		case "stats":
			return 2, d.stats(&r.Stats)
		case "query_stats":
			return 4, pointer(d, &r.QueryStats, (*decoder).queryStats)
		case "partial":
			return 8, pointer(d, &r.Partial, (*decoder).partial)
		case "elapsed_ms":
			return 16, d.float(&r.ElapsedMS)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) subgraph(s *SubgraphJSON) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "center":
			return 1, d.int32(&s.Center)
		case "score":
			return 2, pointer(d, &s.Score, (*decoder).float)
		case "nodes":
			return 4, d.int32s(&s.Nodes)
		case "edges":
			return 8, array(d, &s.Edges, (*decoder).edge)
		case "rel":
			return 16, d.rel(&s.Rel)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) stats(st *StatsJSON) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "balls_examined":
			return 1, d.int(&st.BallsExamined)
		case "balls_skipped":
			return 2, d.int(&st.BallsSkipped)
		case "pairs_removed":
			return 4, d.int(&st.PairsRemoved)
		case "duplicates":
			return 8, d.int(&st.Duplicates)
		case "minimized_from":
			return 16, d.int(&st.MinimizedFrom)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) queryStats(qs *QueryStatsJSON) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "candidate_centers":
			return 1, d.int(&qs.CandidateCenters)
		case "balls_built":
			return 2, d.int(&qs.BallsBuilt)
		case "ball_nodes":
			return 4, d.int64(&qs.BallNodes)
		case "ball_edges":
			return 8, d.int64(&qs.BallEdges)
		case "prepare_ms":
			return 16, d.float(&qs.PrepareMS)
		case "filter_ms":
			return 32, d.float(&qs.FilterMS)
		case "eval_ms":
			return 64, d.float(&qs.EvalMS)
		case "merge_ms":
			return 128, d.float(&qs.MergeMS)
		case "plan_cache":
			return 256, d.string(&qs.PlanCache)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) partial(p *PartialJSON) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "failed_shards":
			return 1, array(d, &p.FailedShards, (*decoder).int)
		case "missing_nodes":
			return 2, d.int(&p.MissingNodes)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) matchRequest(r *MatchRequest) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "pattern":
			return 1, pointer(d, &r.Pattern, (*decoder).pattern)
		case "pattern_text":
			return 2, d.string(&r.PatternText)
		case "query":
			return 4, d.querySpec(&r.Query)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) pattern(p *PatternJSON) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "name":
			return 1, d.string(&p.Name)
		case "nodes":
			return 2, array(d, &p.Nodes, (*decoder).patternNode)
		case "edges":
			return 4, array(d, &p.Edges, (*decoder).patternEdge)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) patternNode(n *PatternNode) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "id":
			return 1, d.string(&n.ID)
		case "label":
			return 2, d.string(&n.Label)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) patternEdge(e *PatternEdge) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "u":
			return 1, d.string(&e.U)
		case "v":
			return 2, d.string(&e.V)
		case "bound":
			return 4, d.string(&e.Bound)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) querySpec(q *QuerySpec) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "mode":
			return 1, d.string(&q.Mode)
		case "radius":
			return 2, d.int(&q.Radius)
		case "limit":
			return 4, d.int(&q.Limit)
		case "top_k":
			return 8, d.int(&q.TopK)
		case "metric":
			return 16, d.string(&q.Metric)
		case "deadline_ms":
			return 32, d.int(&q.DeadlineMS)
		case "stats":
			return 64, d.bool(&q.Stats)
		case "allow_partial":
			return 128, d.bool(&q.AllowPartial)
		case "no_plan":
			return 256, d.bool(&q.NoPlan)
		case "slice":
			return 512, pointer(d, &q.Slice, (*decoder).slice)
		}
		return 0, d.unknown(key)
	})
}

func (d *decoder) slice(s *SliceJSON) bool {
	return d.object(func(key []byte) (fields, bool) {
		switch string(key) {
		case "index":
			return 1, d.int(&s.Index)
		case "of":
			return 2, d.int(&s.Of)
		}
		return 0, d.unknown(key)
	})
}
