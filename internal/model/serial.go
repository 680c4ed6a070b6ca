package model

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text serialization format follows the paper's §5 description: a
// header naming the labels, then one line per tree. Branch nodes are
// written "(feature threshold left right)" and leaves are bare label
// indices:
//
//	# comments start with '#'
//	labels approve deny
//	features 3
//	precision 8
//	tree (0 130 (1 77 0 1) 1)
//	tree (2 40 0 (0 99 1 0))

// Format writes f in the text serialization format.
func Format(w io.Writer, f *Forest) error {
	if err := f.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "labels %s\n", strings.Join(f.Labels, " "))
	fmt.Fprintf(bw, "features %d\n", f.NumFeatures)
	fmt.Fprintf(bw, "precision %d\n", f.Precision)
	for _, tr := range f.Trees {
		bw.WriteString("tree ")
		writeNode(bw, tr.Root)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func writeNode(bw *bufio.Writer, n *Node) {
	if n.Leaf {
		fmt.Fprintf(bw, "%d", n.Label)
		return
	}
	fmt.Fprintf(bw, "(%d %d ", n.Feature, n.Threshold)
	writeNode(bw, n.Left)
	bw.WriteByte(' ')
	writeNode(bw, n.Right)
	bw.WriteByte(')')
}

// FormatString renders f to a string.
func FormatString(f *Forest) (string, error) {
	var sb strings.Builder
	if err := Format(&sb, f); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// MaxTreeDepth is the deepest nesting of branch nodes Parse reads. The
// parser recurses once per nesting level, so the input must not pick how
// deep its stack grows; a forest the paper's pipeline evaluates is orders
// of magnitude shallower.
const MaxTreeDepth = 1024

// DepthError is Parse's refusal of a tree whose branch nodes nest deeper
// than MaxTreeDepth.
type DepthError struct{}

func (e *DepthError) Error() string {
	return fmt.Sprintf("tree nests branch nodes deeper than %d", MaxTreeDepth)
}

// Parse reads a forest in the text serialization format. A tree nested
// deeper than MaxTreeDepth is refused with a *DepthError.
func Parse(r io.Reader) (*Forest, error) {
	f := &Forest{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		field, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch field {
		case "labels":
			f.Labels = strings.Fields(rest)
		case "features":
			n, err := strconv.Atoi(rest)
			if err != nil {
				return nil, fmt.Errorf("model: line %d: bad feature count %q", lineNo, rest)
			}
			f.NumFeatures = n
		case "precision":
			n, err := strconv.Atoi(rest)
			if err != nil {
				return nil, fmt.Errorf("model: line %d: bad precision %q", lineNo, rest)
			}
			f.Precision = n
		case "tree":
			root, err := parseTree(rest)
			if err != nil {
				return nil, fmt.Errorf("model: line %d: %w", lineNo, err)
			}
			f.Trees = append(f.Trees, &Tree{Root: root})
		default:
			return nil, fmt.Errorf("model: line %d: unknown directive %q", lineNo, field)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseString parses a forest from a string.
func ParseString(s string) (*Forest, error) {
	return Parse(strings.NewReader(s))
}

func parseTree(s string) (*Node, error) {
	toks := tokenize(s)
	node, rest, err := parseNode(toks, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trailing tokens after tree: %v", rest)
	}
	return node, nil
}

func tokenize(s string) []string {
	s = strings.ReplaceAll(s, "(", " ( ")
	s = strings.ReplaceAll(s, ")", " ) ")
	return strings.Fields(s)
}

// parseNode reads the node at the head of toks, depth branch nodes
// below the root.
func parseNode(toks []string, depth int) (*Node, []string, error) {
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("unexpected end of tree")
	}
	if toks[0] != "(" {
		label, err := strconv.Atoi(toks[0])
		if err != nil {
			return nil, nil, fmt.Errorf("bad leaf label %q", toks[0])
		}
		return &Node{Leaf: true, Label: label}, toks[1:], nil
	}
	if len(toks) < 5 {
		return nil, nil, fmt.Errorf("truncated branch node")
	}
	if depth == MaxTreeDepth {
		return nil, nil, &DepthError{}
	}
	feature, err := strconv.Atoi(toks[1])
	if err != nil {
		return nil, nil, fmt.Errorf("bad feature index %q", toks[1])
	}
	threshold, err := strconv.ParseUint(toks[2], 10, 64)
	if err != nil {
		return nil, nil, fmt.Errorf("bad threshold %q", toks[2])
	}
	left, rest, err := parseNode(toks[3:], depth+1)
	if err != nil {
		return nil, nil, err
	}
	right, rest, err := parseNode(rest, depth+1)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) == 0 || rest[0] != ")" {
		return nil, nil, fmt.Errorf("missing ')' after branch node")
	}
	return &Node{Feature: feature, Threshold: threshold, Left: left, Right: right}, rest[1:], nil
}
