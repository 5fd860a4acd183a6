package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// SessionGap is the 30-minute rule the program segments sessions by.
const SessionGap = 30 * time.Minute

// MaxContext bounds the context length of a generated request.
const MaxContext = 3

// Item is one held-out observation: a session prefix and the query the
// session issued next.
type Item struct {
	Ctx   int32 // index into Inputs.Contexts
	Truth string
}

// Inputs is the held-out traffic a workload draws from.
type Inputs struct {
	Sessions [][]string
	Items    []Item
	Contexts [][]string // distinct contexts, in first-seen order
	ItemsOf  [][]int32  // items per context
	CtxOf    []int32    // context per item
}

// CopyFile copies src to dst.
func CopyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// Run runs one of the repository's binaries and returns its error with its
// standard error attached.
func Run(bin string, args ...string) error {
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, stderr.String())
	}
	return nil
}

// ReadSessions reads a query log in the program's tab-separated record
// format and splits it into sessions: consecutive records of one machine no
// more than SessionGap apart.
func ReadSessions(r io.Reader) ([][]string, error) {
	var (
		out      [][]string
		cur      []string
		machine  string
		lastTime time.Time
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), "\t", 4)
		if len(f) < 4 {
			return nil, fmt.Errorf("malformed log line %q", sc.Text())
		}
		t, err := time.Parse(time.RFC3339, f[2])
		if err != nil {
			return nil, fmt.Errorf("malformed log time %q: %w", f[2], err)
		}
		if f[0] != machine || t.Sub(lastTime) > SessionGap || t.Before(lastTime) {
			if len(cur) > 0 {
				out = append(out, cur)
			}
			cur = nil
		}
		cur = append(cur, f[1])
		machine, lastTime = f[0], t
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out, sc.Err()
}

// ReadSessionsFile is ReadSessions over a file.
func ReadSessionsFile(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSessions(f)
}

// NewInputs derives every (prefix, next query) observation of up to
// MaxContext preceding queries from the sessions.
func NewInputs(sessions [][]string) *Inputs {
	in := &Inputs{Sessions: sessions}
	index := make(map[string]int32)
	for _, s := range sessions {
		for l := 1; l < len(s) && l <= MaxContext; l++ {
			ctx := s[:l]
			k := CtxKey(ctx)
			ci, ok := index[k]
			if !ok {
				ci = int32(len(in.Contexts))
				index[k] = ci
				in.Contexts = append(in.Contexts, ctx)
				in.ItemsOf = append(in.ItemsOf, nil)
			}
			item := int32(len(in.Items))
			in.Items = append(in.Items, Item{Ctx: ci, Truth: s[l]})
			in.ItemsOf[ci] = append(in.ItemsOf[ci], item)
			in.CtxOf = append(in.CtxOf, ci)
		}
	}
	return in
}

// HotItems returns the items whose context is among the k most frequent
// contexts. Drawing uniformly from them keeps the traffic's natural
// power-law skew over a set of contexts small enough to stay cached.
func (in *Inputs) HotItems(k int) []int32 {
	order := make([]int32, len(in.Contexts))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return len(in.ItemsOf[order[a]]) > len(in.ItemsOf[order[b]]) })
	if k > len(order) {
		k = len(order)
	}
	var out []int32
	for _, c := range order[:k] {
		out = append(out, in.ItemsOf[c]...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ContextsOf returns the distinct contexts of the items, in first-seen
// order.
func (in *Inputs) ContextsOf(items []int32) [][]string {
	seen := map[int32]bool{}
	var out [][]string
	for _, it := range items {
		if c := in.CtxOf[it]; !seen[c] {
			seen[c] = true
			out = append(out, in.Contexts[c])
		}
	}
	return out
}

// SuggestTarget encodes GET /suggest for a context.
func SuggestTarget(ctx []string) string {
	var b strings.Builder
	b.WriteString("/suggest")
	for i, q := range ctx {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		b.WriteString("q=")
		b.WriteString(url.QueryEscape(q))
	}
	return b.String()
}

// BatchBody encodes a POST /suggest/batch body for the items' contexts.
func (in *Inputs) BatchBody(items []int32) []byte {
	var b strings.Builder
	b.WriteString(`{"requests":[`)
	for i, it := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"context":[`)
		for j, q := range in.Contexts[in.CtxOf[it]] {
			if j > 0 {
				b.WriteByte(',')
			}
			qb, _ := json.Marshal(q) // a string always marshals
			b.Write(qb)
		}
		b.WriteString(`]}`)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// LogLine formats one query record in the program's log format, without
// clicks.
func LogLine(machine, query string, t time.Time) string {
	return machine + "\t" + query + "\t" + t.UTC().Format(time.RFC3339) + "\t0\n"
}

// AddItem appends one observation outside the held-out traffic (a probe)
// and returns its item index.
func (in *Inputs) AddItem(ctx []string, truth string) int32 {
	ci := int32(len(in.Contexts))
	in.Contexts = append(in.Contexts, ctx)
	item := int32(len(in.Items))
	in.Items = append(in.Items, Item{Ctx: ci, Truth: truth})
	in.ItemsOf = append(in.ItemsOf, []int32{item})
	in.CtxOf = append(in.CtxOf, ci)
	return item
}
