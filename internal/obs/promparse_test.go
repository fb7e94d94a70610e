package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromSample is one parsed exposition line: a series identity and its
// value.
type PromSample struct {
	// ID is the canonical name{labels} identity as it appeared.
	ID     string
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily groups the parsed samples of one metric family with its
// TYPE and HELP metadata.
type PromFamily struct {
	Name    string
	Kind    string // "counter", "gauge", "untyped", ...
	Help    string
	Samples []PromSample
}

// ParsePromText parses Prometheus text exposition format — the inverse
// of Registry.WritePromText. It exists so tests can round-trip the
// exported snapshot instead of string-matching it, and it accepts the
// subset of the format that exporter emits: # HELP / # TYPE comments
// and name{labels} value lines. Families are returned in
// first-appearance order; HELP text is unescaped (\\ and \n).
func ParsePromText(r io.Reader) ([]PromFamily, error) {
	var order []string
	byName := make(map[string]*PromFamily)
	family := func(name string) *PromFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &PromFamily{Name: name, Kind: "untyped"}
		byName[name] = f
		order = append(order, name)
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, rest, ok := strings.Cut(strings.TrimSpace(line[1:]), " ")
			if !ok {
				continue
			}
			name, meta, _ := strings.Cut(rest, " ")
			switch kind {
			case "TYPE":
				family(name).Kind = meta
			case "HELP":
				family(name).Help = unescapeHelp(meta)
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: prom text line %d: %w", lineNo, err)
		}
		f := family(s.Name)
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: prom text: %w", err)
	}
	out := make([]PromFamily, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out, nil
}

// parsePromSample parses one `name{labels} value` line.
func parsePromSample(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		s.Name = rest[:i]
		labels, err := parsePromLabels(rest[i+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		s.ID = rest[:end+1]
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		var ok bool
		s.Name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			return s, fmt.Errorf("missing value in %q", line)
		}
		s.ID = s.Name
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return s, fmt.Errorf("want one value after series in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parsePromLabels parses `k1="v1",k2="v2"` with \" \\ \n escapes.
func parsePromLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	rest := body
	for rest != "" {
		key, after, ok := strings.Cut(rest, "=")
		if !ok {
			return nil, fmt.Errorf("label without value in %q", body)
		}
		key = strings.TrimSpace(key)
		after = strings.TrimSpace(after)
		if len(after) < 2 || after[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q in %q", key, body)
		}
		var b strings.Builder
		i := 1
		closed := false
		for i < len(after) {
			c := after[i]
			if c == '\\' && i+1 < len(after) {
				switch after[i+1] {
				case '"':
					b.WriteByte('"')
				case '\\':
					b.WriteByte('\\')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(after[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %q in %q", key, body)
		}
		labels[key] = b.String()
		rest = strings.TrimSpace(after[i:])
		rest = strings.TrimPrefix(rest, ",")
		rest = strings.TrimSpace(rest)
	}
	return labels, nil
}

// unescapeHelp inverts escapeHelp when parsing HELP lines.
func unescapeHelp(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
