package olap

import (
	"testing"

	"anydb/internal/storage"
)

// TestPredicates evaluates each predicate kind the way every scan does:
// compiled against the schema, prepared against an encoded chunk, then
// tested per row.
func TestPredicates(t *testing.T) {
	sch := storage.NewSchema("t",
		storage.Column{Name: "s", Kind: storage.KStr},
		storage.Column{Name: "n", Kind: storage.KInt})
	tab := storage.NewTable(sch)
	tab.Append(storage.Row{storage.Str("AZ"), storage.Int(2010)})
	chunk := tab.ColChunk(0)
	for _, c := range []struct {
		p    Predicate
		want bool
	}{
		{Predicate{Kind: PredNone}, true},
		{Predicate{Col: "s", Kind: PredPrefix, Prefix: "A"}, true},
		{Predicate{Col: "s", Kind: PredPrefix, Prefix: "B"}, false},
		{Predicate{Col: "s", Kind: PredEqStr, Str: "AZ"}, true},
		{Predicate{Col: "s", Kind: PredEqStr, Str: "A"}, false},
		{Predicate{Col: "n", Kind: PredGEInt, MinI: 2007}, true},
		{Predicate{Col: "n", Kind: PredGEInt, MinI: 2011}, false},
		{Predicate{Col: "n", Kind: PredLTInt, MinI: 2011}, true},
		{Predicate{Col: "n", Kind: PredLTInt, MinI: 2010}, false},
		{Predicate{Col: "n", Kind: PredEqInt, MinI: 2010}, true},
		{Predicate{Col: "n", Kind: PredNeInt, MinI: 2010}, false},
	} {
		got := len(matchChunk(chunk, []compiledPred{compilePred(sch, c.p)}, nil)) == 1
		if got != c.want {
			t.Errorf("%+v on %v: match=%v, want %v", c.p, chunk.Value(0, 0), got, c.want)
		}
	}
}
