package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// CanonicalJSON encodes v as canonical JSON: object keys sorted bytewise,
// no insignificant whitespace, numbers rendered exactly as encoding/json
// renders them. The same value always produces the same bytes, independent
// of Go map iteration order or the run it is produced in — the property
// that makes the bytes usable as a content address (the service's result
// cache hashes canonical parameter encodings) and lets cached response
// bodies be compared byte-for-byte against fresh ones.
//
// The encoding is produced by marshalling v with encoding/json and then
// rewriting the token stream with sorted keys. Number literals pass
// through verbatim, so float formatting is exactly encoding/json's
// shortest-roundtrip form and cannot drift from the non-canonical
// encoding of the same value.
//
// The decode-and-re-encode round trip costs several times the marshal, so
// the hot per-cell path skips it: campaign cell keys and cell partials
// are structs declaring their fields in key order, for which plain
// json.Marshal already yields these bytes (internal/experiments tests
// that). The round trip still runs for merged campaign bodies, normalized
// campaign parameters, and other untyped input.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len(raw))
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("report: canonicalize: %w", err)
	}
	if err := writeCanonical(&buf, tree); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeCanonical serializes one decoded JSON value with sorted object keys.
func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case json.Number:
		buf.WriteString(x.String())
	case string:
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		return fmt.Errorf("report: canonicalize: unexpected decoded type %T", v)
	}
	return nil
}
