package serve

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/sim"
)

// The /recover bodies are written by the append functions below, not by
// encoding/json: an answer's size is dominated by integer arrays, and
// reflection over them was most of a warm query. Each appends exactly
// the bytes json.NewEncoder(w).Encode(v) writes for the same value —
// field order, omitempty, HTML-safe string escaping, encoding/json's
// float format and sorted map keys — less the trailing newline, which
// writeBody adds. FuzzResponseJSON holds them to encoding/json byte for
// byte.

// unsupportedFloat is encoding/json's error for a NaN or infinite
// float, with its message.
type unsupportedFloat float64

func (f unsupportedFloat) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(float64(f), 'g', -1, 64)
}

// appendJSON appends r as a JSON object.
func (r *Response) appendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	at := len(b)
	b = appendStringField(b, at, `"topo":`, r.Topo)
	b = appendStringField(b, at, `"failure":`, r.Failure)
	b = appendInt(appendKey(b, at, `"src":`), r.Src)
	b = appendInt(appendKey(b, at, `"dst":`), r.Dst)
	b = appendStringField(b, at, `"scheme":`, r.Scheme)
	b = appendStringField(b, at, `"disposition":`, r.Disposition)
	b = appendTrue(b, at, `"recoverable":true`, r.Recoverable)
	b = appendTrue(b, at, `"cache_hit":true`, r.CacheHit)
	b = appendTrue(b, at, `"path_affected":true`, r.PathAffected)
	b, err := appendFloatField(b, at, `"converged_cost":`, r.ConvergedCost)
	if err != nil {
		return b, err
	}
	b = appendIntField(b, at, `"converged_hops":`, r.ConvergedHops)
	if r.Case != nil {
		if b, err = appendCaseRecord(appendKey(b, at, `"case":`), r.Case, r.en, r.sess); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendJSON appends br as a JSON object.
func (br *BatchResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	at := len(b)
	b = appendStringField(b, at, `"topo":`, br.Topo)
	b = appendStringField(b, at, `"failure":`, br.Failure)
	b = appendStringField(b, at, `"scheme":`, br.Scheme)
	b = appendTrue(b, at, `"cache_hit":true`, br.CacheHit)
	b = appendKey(b, at, `"results":`)
	if br.Results == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, r := range br.Results {
		if i > 0 {
			b = append(b, ',')
		}
		if r == nil {
			b = append(b, "null"...)
			continue
		}
		var err error
		if b, err = r.appendJSON(b); err != nil {
			return b, err
		}
	}
	return append(b, "]}"...), nil
}

// errorBody is the message of a rejected query or a failed answer.
type errorBody string

// appendJSON appends the {"error": msg} object.
func (msg errorBody) appendJSON(b []byte) ([]byte, error) {
	return append(appendString(append(b, `{"error":`...), string(msg)), '}'), nil
}

// appendCaseRecord appends rec as a JSON object. en and sess are the
// cache entry and the RTR session the answer rode (nil when unknown),
// whose encoded phase-1 series the entry memoises.
func appendCaseRecord(b []byte, rec *sim.CaseRecord, en *entry, sess *core.Session) ([]byte, error) {
	b = append(b, `{"recoverable":`...)
	b = strconv.AppendBool(b, rec.Recoverable)
	if rec.Err != "" {
		b = appendString(append(b, `,"err":`...), rec.Err)
	}

	r := &rec.RTR
	b = append(b, `,"rtr":{`...)
	at := len(b)
	b = appendTrue(b, at, `"recovered":true`, r.Recovered)
	b = appendTrue(b, at, `"optimal":true`, r.Optimal)
	b, err := appendFloatField(b, at, `"stretch":`, r.Stretch)
	if err != nil {
		return b, err
	}
	b = appendIntField(b, at, `"sp_calcs":`, r.SPCalcs)
	if len(r.Phase1Bytes) > 0 {
		b = en.appendPhase1(appendKey(b, at, `"phase1_bytes":`), sess, r.Phase1Bytes)
	}
	b = appendIntField(b, at, `"route_bytes":`, r.RouteBytes)
	b = appendTrue(b, at, `"identified_unreachable":true`, r.IdentifiedUnreachable)
	b = appendIntField(b, at, `"wasted_hops":`, r.WastedHops)
	b = appendTrue(b, at, `"no_live_neighbor":true`, r.NoLiveNeighbor)

	f := &rec.FCP
	b = append(b, `},"fcp":{`...)
	at = len(b)
	b = appendTrue(b, at, `"delivered":true`, f.Delivered)
	b = appendTrue(b, at, `"optimal":true`, f.Optimal)
	if b, err = appendFloatField(b, at, `"stretch":`, f.Stretch); err != nil {
		return b, err
	}
	b = appendIntField(b, at, `"sp_calcs":`, f.SPCalcs)
	if len(f.WalkBytes) > 0 {
		b = appendInts(appendKey(b, at, `"walk_bytes":`), f.WalkBytes)
	}
	b = appendIntField(b, at, `"final_bytes":`, f.FinalBytes)
	b = appendIntField(b, at, `"wasted_hops":`, f.WastedHops)

	m := &rec.MRC
	b = append(b, `},"mrc":{`...)
	at = len(b)
	b = appendTrue(b, at, `"delivered":true`, m.Delivered)
	b = appendTrue(b, at, `"optimal":true`, m.Optimal)
	if b, err = appendFloatField(b, at, `"stretch":`, m.Stretch); err != nil {
		return b, err
	}
	b = appendTrue(b, at, `"skipped":true`, m.Skipped)
	b = append(b, '}')

	if len(rec.Schemes) > 0 {
		var few [8]string
		names := few[:0]
		for name := range rec.Schemes {
			names = append(names, name)
		}
		slices.Sort(names)
		b = append(b, `,"schemes":{`...)
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendResult(append(appendString(b, name), ':'), rec.Schemes[name]); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendResult appends one registered scheme's grade as a JSON object.
func appendResult(b []byte, r sim.Result) ([]byte, error) {
	b = append(b, `{"delivered":`...)
	b = strconv.AppendBool(b, r.Delivered)
	at := 0 // the object already has a field
	b = appendTrue(b, at, `"optimal":true`, r.Optimal)
	b, err := appendFloatField(b, at, `"stretch":`, r.Stretch)
	if err != nil {
		return b, err
	}
	b = appendIntField(b, at, `"sp_calcs":`, r.SPCalcs)
	b = appendTrue(b, at, `"no_live_neighbor":true`, r.NoLiveNeighbor)
	b = appendTrue(b, at, `"skipped":true`, r.Skipped)
	return append(b, '}'), nil
}

// The field helpers below append one member of an object whose first
// member would start at b[at]: a member after another is led by a
// comma. The omitempty ones append nothing for a zero value.

// appendKey appends key, a quoted name with its colon.
func appendKey(b []byte, at int, key string) []byte {
	if len(b) > at {
		b = append(b, ',')
	}
	return append(b, key...)
}

// appendTrue appends member, a whole `"name":true`, when v is set.
func appendTrue(b []byte, at int, member string, v bool) []byte {
	if !v {
		return b
	}
	return appendKey(b, at, member)
}

func appendIntField(b []byte, at int, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return appendInt(appendKey(b, at, key), v)
}

func appendFloatField(b []byte, at int, key string, v float64) ([]byte, error) {
	if v == 0 {
		return b, nil
	}
	return appendFloat(appendKey(b, at, key), v)
}

func appendStringField(b []byte, at int, key, s string) []byte {
	return appendString(appendKey(b, at, key), s)
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendInts appends v as a JSON array of integers.
func appendInts(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, x)
	}
	return append(b, ']')
}

// appendFloat appends f the way encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 on, with a one-digit negative exponent unpadded. NaN and
// the infinities have no JSON form.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, unsupportedFloat(f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's
// HTML-safe escaping: quotes, backslashes, control characters, '<',
// '>', '&', U+2028 and U+2029 are escaped, and each byte of invalid
// UTF-8 becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
