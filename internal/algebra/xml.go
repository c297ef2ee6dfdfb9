package algebra

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// XML serialization of algebraic plans, used by the wire protocol when the
// mediator pushes a subplan to a remote wrapper (Figure 2 deployment).
// Filters, predicates and construction patterns are embedded in their
// stable textual syntaxes (each has a print/parse round-trip property
// verified by tests); the plan structure itself is XML.

// PlanToXML serializes a plan.
func PlanToXML(op Op) (*data.Node, error) {
	switch x := op.(type) {
	case *Bind:
		n := data.Elem("bind")
		if x.Doc != "" {
			n.Add(data.Text("@doc", x.Doc))
		}
		if x.Col != "" {
			n.Add(data.Text("@col", x.Col))
		}
		n.Add(data.Text("@filter", x.F.String()))
		if x.From != nil {
			from, err := PlanToXML(x.From)
			if err != nil {
				return nil, err
			}
			n.Add(data.Elem("from", from))
		}
		return n, nil
	case *Select:
		return unaryXML("select", x.From, data.Text("@pred", x.Pred.String()))
	case *Project:
		return unaryXML("project", x.From, data.Text("@cols", strings.Join(x.Cols, " ")))
	case *MapExpr:
		n, err := unaryXML("map", x.From, data.Text("@expr", x.E.String()))
		if err != nil {
			return nil, err
		}
		n.Add(data.Text("@col", x.Col))
		return n, nil
	case *Join:
		return binaryXML("join", x.L, x.R, data.Text("@pred", x.Pred.String()))
	case *DJoin:
		return binaryXML("djoin", x.L, x.R)
	case *Union:
		return binaryXML("union", x.L, x.R)
	case *Intersect:
		return binaryXML("intersect", x.L, x.R)
	case *Distinct:
		return unaryXML("distinct", x.From)
	case *Group:
		n, err := unaryXML("group", x.From, data.Text("@keys", strings.Join(x.Keys, " ")))
		if err != nil {
			return nil, err
		}
		n.Add(data.Text("@into", x.Into))
		return n, nil
	case *Sort:
		return unaryXML("sort", x.From, data.Text("@cols", strings.Join(x.Cols, " ")))
	case *TreeOp:
		n, err := unaryXML("tree", x.From, data.Text("@cons", x.C.String()))
		if err != nil {
			return nil, err
		}
		if x.OutCol != "" {
			n.Add(data.Text("@out", x.OutCol))
		}
		return n, nil
	case *SourceQuery:
		inner, err := PlanToXML(x.Plan)
		if err != nil {
			return nil, err
		}
		n := data.Elem("sourcequery", data.Elem("plan", inner))
		n.Add(data.Text("@source", x.Source))
		return n, nil
	case *Literal:
		t, err := tab.ToXML(x.T)
		if err != nil {
			return nil, err
		}
		return data.Elem("literal", t), nil
	default:
		return nil, fmt.Errorf("algebra: cannot serialize operator %T", op)
	}
}

func unaryXML(label string, from Op, extra ...*data.Node) (*data.Node, error) {
	f, err := PlanToXML(from)
	if err != nil {
		return nil, err
	}
	n := data.Elem(label)
	n.Add(extra...)
	n.Add(data.Elem("from", f))
	return n, nil
}

func binaryXML(label string, l, r Op, extra ...*data.Node) (*data.Node, error) {
	ln, err := PlanToXML(l)
	if err != nil {
		return nil, err
	}
	rn, err := PlanToXML(r)
	if err != nil {
		return nil, err
	}
	n := data.Elem(label)
	n.Add(extra...)
	n.Add(data.Elem("left", ln), data.Elem("right", rn))
	return n, nil
}

// PlanFromXML deserializes a plan.
func PlanFromXML(n *data.Node) (Op, error) {
	if n == nil {
		return nil, fmt.Errorf("algebra: nil plan element")
	}
	switch n.Label {
	case "bind":
		fsrc := n.Attr("filter")
		f, err := filter.Parse(fsrc)
		if err != nil {
			return nil, fmt.Errorf("algebra: bind filter: %w", err)
		}
		b := &Bind{Doc: n.Attr("doc"), Col: n.Attr("col"), F: f}
		if from := n.Child("from"); from != nil {
			inner, err := PlanFromXML(from.FirstElem())
			if err != nil {
				return nil, err
			}
			b.From = inner
		}
		return b, nil
	case "select":
		from, err := fromOf(n)
		if err != nil {
			return nil, err
		}
		pred, err := ParseExpr(n.Attr("pred"))
		if err != nil {
			return nil, fmt.Errorf("algebra: select pred: %w", err)
		}
		return &Select{From: from, Pred: pred}, nil
	case "project":
		from, err := fromOf(n)
		if err != nil {
			return nil, err
		}
		return &Project{From: from, Cols: fields(n.Attr("cols"))}, nil
	case "map":
		from, err := fromOf(n)
		if err != nil {
			return nil, err
		}
		e, err := ParseExpr(n.Attr("expr"))
		if err != nil {
			return nil, fmt.Errorf("algebra: map expr: %w", err)
		}
		return &MapExpr{From: from, Col: n.Attr("col"), E: e}, nil
	case "join":
		l, r, err := sidesOf(n)
		if err != nil {
			return nil, err
		}
		pred, err := ParseExpr(n.Attr("pred"))
		if err != nil {
			return nil, fmt.Errorf("algebra: join pred: %w", err)
		}
		return &Join{L: l, R: r, Pred: pred}, nil
	case "djoin":
		l, r, err := sidesOf(n)
		if err != nil {
			return nil, err
		}
		return &DJoin{L: l, R: r}, nil
	case "union":
		l, r, err := sidesOf(n)
		if err != nil {
			return nil, err
		}
		return &Union{L: l, R: r}, nil
	case "intersect":
		l, r, err := sidesOf(n)
		if err != nil {
			return nil, err
		}
		return &Intersect{L: l, R: r}, nil
	case "distinct":
		from, err := fromOf(n)
		if err != nil {
			return nil, err
		}
		return &Distinct{From: from}, nil
	case "group":
		from, err := fromOf(n)
		if err != nil {
			return nil, err
		}
		return &Group{From: from, Keys: fields(n.Attr("keys")), Into: n.Attr("into")}, nil
	case "sort":
		from, err := fromOf(n)
		if err != nil {
			return nil, err
		}
		return &Sort{From: from, Cols: fields(n.Attr("cols"))}, nil
	case "tree":
		from, err := fromOf(n)
		if err != nil {
			return nil, err
		}
		c, err := ParseCons(n.Attr("cons"))
		if err != nil {
			return nil, fmt.Errorf("algebra: tree cons: %w", err)
		}
		return &TreeOp{From: from, C: c, OutCol: n.Attr("out")}, nil
	case "sourcequery":
		plan := n.Child("plan")
		if plan == nil {
			return nil, fmt.Errorf("algebra: sourcequery without plan")
		}
		inner, err := PlanFromXML(plan.FirstElem())
		if err != nil {
			return nil, err
		}
		return &SourceQuery{Source: n.Attr("source"), Plan: inner}, nil
	case "literal":
		t, err := tab.FromXML(n.FirstElem())
		if err != nil {
			return nil, err
		}
		return &Literal{T: t}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown plan element <%s>", n.Label)
	}
}

func fromOf(n *data.Node) (Op, error) {
	from := n.Child("from")
	if from == nil {
		return nil, fmt.Errorf("algebra: <%s> without <from>", n.Label)
	}
	return PlanFromXML(from.FirstElem())
}

func sidesOf(n *data.Node) (Op, Op, error) {
	ln, rn := n.Child("left"), n.Child("right")
	if ln == nil || rn == nil {
		return nil, nil, fmt.Errorf("algebra: <%s> without both sides", n.Label)
	}
	l, err := PlanFromXML(ln.FirstElem())
	if err != nil {
		return nil, nil, err
	}
	r, err := PlanFromXML(rn.FirstElem())
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func fields(s string) []string {
	var out []string
	for _, f := range strings.Fields(s) {
		out = append(out, f)
	}
	return out
}

// MarshalPlan renders a plan as XML text.
func MarshalPlan(op Op) (string, error) {
	n, err := PlanToXML(op)
	if err != nil {
		return "", err
	}
	return xmlenc.Serialize(n), nil
}

// UnmarshalPlan parses a plan from XML text.
func UnmarshalPlan(src string) (Op, error) {
	n, err := xmlenc.Parse(src)
	if err != nil {
		return nil, err
	}
	return PlanFromXML(n)
}
