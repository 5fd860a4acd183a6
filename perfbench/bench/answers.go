package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// Suggestion is one served or expected suggestion.
type Suggestion struct {
	Query string  `json:"query"`
	Score float64 `json:"score"`
}

// hash64 is FNV-1a over b.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// suggestionSpans appends the byte span of every "suggestions" array value
// in a /suggest or /suggest/batch response, in document order. It reports
// false for a body that is not well-formed enough to scan.
func suggestionSpans(dst [][2]int, body []byte) ([][2]int, bool) {
	const key = "suggestions"
	for i := 0; i < len(body); i++ {
		if body[i] != '"' {
			continue
		}
		end, ok := skipString(body, i)
		if !ok {
			return dst, false
		}
		isKey := end-i-2 == len(key) && string(body[i+1:end-1]) == key
		i = end - 1
		if !isKey {
			continue
		}
		j := end
		for j < len(body) && (body[j] == ' ' || body[j] == ':') {
			j++
		}
		if j >= len(body) || body[j] != '[' {
			return dst, false
		}
		close, ok := skipArray(body, j)
		if !ok {
			return dst, false
		}
		dst = append(dst, [2]int{j, close})
		i = close - 1
	}
	return dst, true
}

// skipString returns the index just past the JSON string starting at i.
func skipString(b []byte, i int) (int, bool) {
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			return j + 1, true
		}
	}
	return 0, false
}

// skipArray returns the index just past the JSON array starting at i.
func skipArray(b []byte, i int) (int, bool) {
	depth := 0
	for j := i; j < len(b); j++ {
		switch b[j] {
		case '"':
			end, ok := skipString(b, j)
			if !ok {
				return 0, false
			}
			j = end - 1
		case '[', '{':
			depth++
		case ']', '}':
			depth--
			if depth == 0 {
				return j + 1, true
			}
		}
	}
	return 0, false
}

// ParseAnswer decodes one "suggestions" array.
func ParseAnswer(b []byte) ([]Suggestion, error) {
	var out []Suggestion
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("decoding answer %.80q: %w", b, err)
	}
	return out, nil
}

// Queries returns the suggested query strings in rank order.
func Queries(ss []Suggestion) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Query
	}
	return out
}

// Oracle holds the expected answer of every context the run may ask about,
// computed by core.Recommend on the served model file inside
// cmd/recommend. Scores are compared at the four significant digits
// cmd/recommend prints; query strings and their order exactly.
type Oracle map[string][]Suggestion

// CtxKey is the map key of a context.
func CtxKey(ctx []string) string { return strings.Join(ctx, "\x1f") }

// BuildOracle runs cmd/recommend over every context and records its last
// answer for each. n is the suggestion count both sides use.
func BuildOracle(recommendBin, model string, contexts [][]string, n int) (Oracle, error) {
	var in bytes.Buffer
	for _, c := range contexts {
		for _, q := range c {
			in.WriteString(q)
			in.WriteByte('\n')
		}
		in.WriteByte('\n') // blank line: session reset
	}
	cmd := exec.Command(recommendBin, "-model", model, "-n", strconv.Itoa(n))
	cmd.Stdin = &in
	var out bytes.Buffer
	cmd.Stdout = &out
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("oracle: %v: %s", err, stderr.Bytes())
	}
	return parseOracle(&out, contexts)
}

// parseOracle splits cmd/recommend's output into one block per input line
// and keeps, per context, the block printed after its last query.
func parseOracle(r io.Reader, contexts [][]string) (Oracle, error) {
	o := make(Oracle, len(contexts))
	sc := bufio.NewScanner(r)
	ci := 0
	var last []Suggestion
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "-- session reset --":
			if ci >= len(contexts) {
				return nil, fmt.Errorf("oracle: more answers than contexts")
			}
			o[CtxKey(contexts[ci])] = last
			ci++
			last = nil
		case strings.HasPrefix(line, "(no suggestions"):
			last = nil
		default:
			dot := strings.Index(line, ". ")
			sp := strings.LastIndexByte(line, ' ')
			if dot < 0 || sp <= dot {
				return nil, fmt.Errorf("oracle: unparsable line %q", line)
			}
			rank, err := strconv.Atoi(line[:dot])
			if err != nil {
				return nil, fmt.Errorf("oracle: unparsable line %q", line)
			}
			if rank == 1 {
				last = nil
			}
			score, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("oracle: unparsable score in %q", line)
			}
			last = append(last, Suggestion{Query: strings.TrimRight(line[dot+2:sp], " "), Score: score})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ci != len(contexts) {
		return nil, fmt.Errorf("oracle: %d answers for %d contexts", ci, len(contexts))
	}
	return o, nil
}

// Match reports whether a served answer equals the expected one: the same
// queries in the same order, scores equal at four significant digits.
func Match(served, want []Suggestion) bool {
	if len(served) != len(want) {
		return false
	}
	for i := range served {
		if served[i].Query != want[i].Query ||
			strconv.FormatFloat(served[i].Score, 'g', 4, 64) != strconv.FormatFloat(want[i].Score, 'g', 4, 64) {
			return false
		}
	}
	return true
}
