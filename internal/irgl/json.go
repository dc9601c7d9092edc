package irgl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// Traces serialise to JSON for offline inspection, for the cmd/apptrace
// tool and as the trace cache's entry payload. The format is a single
// object with a fixed schema:
//
//	{"app": ..., "input": ..., "launches": [...], "loops": [...]}
//
// Each launch is a KernelStats object and each loop a LoopStats object,
// keyed by Go field name in declaration order; "launches" is null for a
// nil slice and "loops" is omitted when empty. These are the bytes
// encoding/json writes for that schema. The codec below is written by
// hand for it because the trace cache decodes an entry per (app, input)
// pair of every served campaign, and encoding/json's reflection made
// that decode about ten times slower than a schema-specific scan.
// FuzzTraceJSON holds the encoder to encoding/json byte for byte and
// the decoder to encoding/json's decode of every input it accepts.

// WriteJSON serialises the trace indented by two spaces, as an
// encoding/json Encoder with SetIndent("", "  ") writes it: the compact
// encoding run through json.Indent, then a newline.
func (t *Trace) WriteJSON(w io.Writer) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, t.AppendJSONCompact(nil), "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	return err
}

// AppendJSONCompact appends the trace's single-line JSON encoding to
// dst and returns the extended slice. It is the storage format of the
// trace cache: the same schema as WriteJSON without indentation, so
// ReadTraceJSON round-trips it losslessly. Every counter is an integer,
// and a name reads back unchanged unless it holds invalid UTF-8, which
// encodes as U+FFFD, as in encoding/json.
func (t *Trace) AppendJSONCompact(dst []byte) []byte {
	dst = appendString(appendKey(dst, '{', "app"), t.App)
	dst = appendString(appendKey(dst, ',', "input"), t.Input)
	dst = appendKey(dst, ',', "launches")
	if t.Launches == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range t.Launches {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = t.Launches[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	if len(t.Loops) > 0 {
		dst = append(appendKey(dst, ',', "loops"), '[')
		for i, l := range t.Loops {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, '{', "ID", int64(l.ID))
			dst = appendString(appendKey(dst, ',', "Name"), l.Name)
			dst = appendInt(dst, ',', "Iterations", l.Iterations)
			dst = appendInt(dst, ',', "Launches", l.Launches)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func (s *KernelStats) appendJSON(dst []byte) []byte {
	dst = appendString(appendKey(dst, '{', "Name"), s.Name)
	dst = appendInt(dst, ',', "LoopID", int64(s.LoopID))
	dst = appendInt(dst, ',', "Items", s.Items)
	dst = appendInt(dst, ',', "ZeroWorkItems", s.ZeroWorkItems)
	dst = appendInt(dst, ',', "TotalWork", s.TotalWork)
	dst = appendInt(dst, ',', "MaxWork", s.MaxWork)
	dst = appendInts(dst, "WorkHist", s.WorkHist[:])
	dst = appendInts(dst, "WorkHistSum", s.WorkHistSum[:])
	dst = appendInt(dst, ',', "AtomicPushes", s.AtomicPushes)
	dst = appendInt(dst, ',', "AtomicRMWs", s.AtomicRMWs)
	dst = appendInt(dst, ',', "RandomAccesses", s.RandomAccesses)
	return append(dst, '}')
}

// appendKey appends lead (an object's '{', or the ',' before a later
// member), the quoted key k and its colon.
func appendKey(dst []byte, lead byte, k string) []byte {
	dst = append(append(dst, lead, '"'), k...)
	return append(dst, '"', ':')
}

func appendInt(dst []byte, lead byte, k string, v int64) []byte {
	return strconv.AppendInt(appendKey(dst, lead, k), v, 10)
}

// appendInts appends a later member holding an array of counters.
func appendInts(dst []byte, k string, vs []int64) []byte {
	dst = append(appendKey(dst, ',', k), '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string escaped as encoding/json
// escapes it by default: quote and backslash; control bytes, as \b, \f,
// \n, \r, \t or \u00XX; '<', '>' and '&' as \u00XX; U+2028 and U+2029
// as \u escapes; and each byte of invalid UTF-8 as the escape of U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// ReadTraceJSON decodes a trace written by AppendJSONCompact or
// WriteJSON. It accepts exactly that schema, with JSON whitespace
// between tokens: every key present once and in order, every counter an
// integer in range, and nothing but whitespace after the object. Any
// other input is an error, as is a launch with negative item or work
// counters.
func ReadTraceJSON(data []byte) (*Trace, error) {
	d := &decoder{data: data}
	tr := &Trace{}
	d.key('{', "app")
	tr.App = d.str()
	d.key(',', "input")
	tr.Input = d.str()
	d.key(',', "launches")
	tr.Launches = decodeList(d, (*decoder).launch, len(data)/minLaunchLen)
	if d.peek() == ',' {
		d.key(',', "loops")
		tr.Loops = decodeList(d, (*decoder).loop, 0)
	}
	d.tok('}')
	if d.ws(); d.pos < len(d.data) {
		d.fail("trailing bytes after the trace")
	}
	if d.err != nil {
		return nil, d.err
	}
	for i, l := range tr.Launches {
		if l.Items < 0 || l.TotalWork < 0 {
			return nil, fmt.Errorf("irgl: launch %d has negative counters", i)
		}
	}
	return tr, nil
}

func (d *decoder) launch(s *KernelStats) {
	d.key('{', "Name")
	s.Name = d.name()
	d.key(',', "LoopID")
	s.LoopID = d.int()
	s.Items = d.int64Field("Items")
	s.ZeroWorkItems = d.int64Field("ZeroWorkItems")
	s.TotalWork = d.int64Field("TotalWork")
	s.MaxWork = d.int64Field("MaxWork")
	d.ints("WorkHist", s.WorkHist[:])
	d.ints("WorkHistSum", s.WorkHistSum[:])
	s.AtomicPushes = d.int64Field("AtomicPushes")
	s.AtomicRMWs = d.int64Field("AtomicRMWs")
	s.RandomAccesses = d.int64Field("RandomAccesses")
	d.tok('}')
}

func (d *decoder) loop(l *LoopStats) {
	d.key('{', "ID")
	l.ID = d.int()
	d.key(',', "Name")
	l.Name = d.str()
	l.Iterations = d.int64Field("Iterations")
	l.Launches = d.int64Field("Launches")
	d.tok('}')
}

// minLaunchLen is the length of the shortest encoded launch and its
// comma, so n bytes of input hold at most n/minLaunchLen launches.
var minLaunchLen = len((&KernelStats{}).appendJSON(nil)) + 1

// decodeList decodes null as a nil slice and an array, even an empty
// one, as a non-nil slice, as encoding/json does. elem fills each
// element in place; the slice starts with capacity hint.
func decodeList[T any](d *decoder, elem func(*decoder, *T), hint int) []T {
	if d.peek() == 'n' && bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		d.pos += len("null")
		return nil
	}
	d.tok('[')
	list := make([]T, 0, hint)
	if d.peek() == ']' {
		d.pos++
		return list
	}
	for d.err == nil {
		var zero T
		list = append(list, zero)
		elem(d, &list[len(list)-1])
		if d.peek() != ',' {
			break
		}
		d.pos++
	}
	d.tok(']')
	return list
}

// decoder scans one encoded trace. Its first error sticks. Later steps
// stay in bounds and may go on scanning, but ReadTraceJSON then
// discards the trace, so the schema reads as straight-line code; only
// decodeList's loop checks err, to stop.
type decoder struct {
	data  []byte
	pos   int
	err   error
	names []string // launch names decoded so far, each allocated once
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("irgl: decoding trace: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
	}
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) && d.data[d.pos] <= ' ' &&
		(d.data[d.pos] == ' ' || d.data[d.pos] == '\t' || d.data[d.pos] == '\n' || d.data[d.pos] == '\r') {
		d.pos++
	}
}

// peek returns the next byte after whitespace, or 0 at the end.
func (d *decoder) peek() byte {
	if d.ws(); d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// tok consumes the structural byte c.
func (d *decoder) tok(c byte) {
	if d.peek() != c {
		d.fail("want %q", c)
		return
	}
	d.pos++
}

// key consumes lead ('{' or ','), the quoted key k and its colon.
func (d *decoder) key(lead byte, k string) {
	d.tok(lead)
	d.ws()
	end := d.pos + len(k) + 2
	if end > len(d.data) || d.data[d.pos] != '"' || string(d.data[d.pos+1:end-1]) != k || d.data[end-1] != '"' {
		d.fail("want key %q", k)
		return
	}
	d.pos = end
	d.tok(':')
}

// int64Field consumes a later member holding one counter.
func (d *decoder) int64Field(k string) int64 {
	d.key(',', k)
	return d.int64()
}

// ints consumes a later member holding an array of exactly len(dst)
// counters into dst.
func (d *decoder) ints(k string, dst []int64) {
	d.key(',', k)
	d.tok('[')
	for i := range dst {
		if i > 0 {
			d.tok(',')
		}
		dst[i] = d.int64()
	}
	d.tok(']')
}

// int64 consumes a JSON integer in int64 range: an optional minus, then
// 0 or digits without a leading zero.
func (d *decoder) int64() int64 {
	d.ws()
	data, i := d.data, d.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	if i == len(data) || data[i] < '0' || data[i] > '9' {
		d.fail("want an integer")
		return 0
	}
	var v uint64
	if data[i] == '0' {
		i++
	} else {
		for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
			c := uint64(data[i] - '0')
			if v > (1<<63-c)/10 {
				d.fail("integer out of range")
				return 0
			}
			v = v*10 + c
		}
	}
	if !neg && v == 1<<63 {
		d.fail("integer out of range")
		return 0
	}
	d.pos = i
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// int consumes an integer that also fits the platform's int.
func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail("integer out of range")
	}
	return int(v)
}

// name consumes a launch name. A trace has a handful of distinct
// kernel names over many launches, so one equal to a name already
// decoded shares that name's string.
func (d *decoder) name() string {
	b := d.strBytes()
	for _, n := range d.names {
		if n == string(b) {
			return n
		}
	}
	n := string(b)
	d.names = append(d.names, n)
	return n
}

// str consumes a JSON string.
func (d *decoder) str() string { return string(d.strBytes()) }

// strBytes consumes a JSON string and returns its decoded bytes, which
// may alias the input, so they must not be modified or kept. Raw bytes
// must be valid UTF-8 and not control bytes; the escapes are \" \\ \/
// \b \f \n \r \t, and \u with four hex digits outside the surrogate
// range. That covers everything appendString writes.
func (d *decoder) strBytes() []byte {
	d.tok('"')
	var esc []byte // the string decoded so far, once it has an escape
	start := d.pos
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[start:i]
			if esc != nil {
				s = append(esc, s...)
			}
			if !utf8.Valid(s) {
				d.fail("invalid UTF-8 in string")
				return nil
			}
			d.pos = i + 1
			return s
		case c < ' ':
			d.fail("control byte in string")
			return nil
		case c != '\\':
			i++
			continue
		}
		r, n := unescape(d.data[i:])
		if n == 0 {
			d.fail("bad escape in string")
			return nil
		}
		esc = utf8.AppendRune(append(esc, d.data[start:i]...), r)
		i += n
		start = i
	}
	d.fail("unterminated string")
	return nil
}

// unescape decodes the escape that b starts with, returning its rune
// and length, or a length of 0 if str does not accept it.
func unescape(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\', '/':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(b) < 6 {
			return 0, 0
		}
		v, err := strconv.ParseUint(string(b[2:6]), 16, 16)
		if err != nil || 0xD800 <= v && v <= 0xDFFF {
			return 0, 0
		}
		return rune(v), 6
	}
	return 0, 0
}
