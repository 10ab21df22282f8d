package tuple

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adaptdb/internal/schema"
	"adaptdb/internal/value"
)

var testSchema = schema.MustNew(
	schema.Column{Name: "id", Kind: value.Int},
	schema.Column{Name: "price", Kind: value.Float},
	schema.Column{Name: "name", Kind: value.String},
	schema.Column{Name: "day", Kind: value.Date},
)

func mkTuple(id int64, price float64, name string, day int64) Tuple {
	return Tuple{value.NewInt(id), value.NewFloat(price), value.NewString(name), value.NewDate(day)}
}

func TestConforms(t *testing.T) {
	good := mkTuple(1, 2.5, "x", 100)
	if err := good.Conforms(testSchema); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	short := Tuple{value.NewInt(1)}
	if err := short.Conforms(testSchema); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	wrongKind := Tuple{value.NewString("no"), value.NewFloat(1), value.NewString("x"), value.NewDate(1)}
	if err := wrongKind.Conforms(testSchema); err == nil {
		t.Errorf("kind mismatch accepted")
	}
	withNull := Tuple{value.NewInt(1), {}, value.NewString("x"), value.NewDate(1)}
	if err := withNull.Conforms(testSchema); err != nil {
		t.Errorf("null column rejected: %v", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := mkTuple(1, 1, "a", 1)
	b := a.Clone()
	b[0] = value.NewInt(99)
	if a[0].Int64() != 1 {
		t.Errorf("Clone aliases original")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := mkTuple(42, 3.75, "hello", 9000)
	buf := in.AppendBinary(nil)
	out, n, err := Decode(buf, testSchema)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("Decode consumed %d of %d", n, len(buf))
	}
	for i := range in {
		if value.Compare(in[i], out[i]) != 0 {
			t.Errorf("col %d: got %v want %v", i, out[i], in[i])
		}
	}
}

func TestDecodeMultiple(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tuples []Tuple
	var buf []byte
	for i := 0; i < 50; i++ {
		tp := mkTuple(rng.Int63n(1000), rng.Float64()*100, "n", rng.Int63n(10000))
		tuples = append(tuples, tp)
		buf = tp.AppendBinary(buf)
	}
	pos := 0
	for i, want := range tuples {
		got, n, err := Decode(buf[pos:], testSchema)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		pos += n
		for c := range want {
			if value.Compare(got[c], want[c]) != 0 {
				t.Fatalf("tuple %d col %d mismatch", i, c)
			}
		}
	}
	if pos != len(buf) {
		t.Fatalf("trailing bytes")
	}
}

func TestDecodeTruncated(t *testing.T) {
	in := mkTuple(42, 3.75, "hello", 9000)
	buf := in.AppendBinary(nil)
	if _, _, err := Decode(buf[:len(buf)-3], testSchema); err == nil {
		t.Errorf("truncated input accepted")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(id int64, price float64, name string, day int64) bool {
		in := mkTuple(id, price, name, day)
		buf := in.AppendBinary(nil)
		out, n, err := Decode(buf, testSchema)
		if err != nil || n != len(buf) {
			return false
		}
		for i := range in {
			if in[i].K == value.Float {
				if in[i].F != out[i].F && !(in[i].F != in[i].F && out[i].F != out[i].F) {
					return false
				}
				continue
			}
			if value.Compare(in[i], out[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	a := Tuple{value.NewInt(1), value.NewInt(2)}
	b := Tuple{value.NewString("x")}
	c := Concat(a, b)
	if len(c) != 3 || c[2].Str() != "x" {
		t.Errorf("Concat wrong: %v", c)
	}
	// Mutating output must not alias inputs.
	c[0] = value.NewInt(9)
	if a[0].Int64() != 1 {
		t.Errorf("Concat aliases input")
	}
}

func TestConcatSchemas(t *testing.T) {
	a := schema.MustNew(schema.Column{Name: "k", Kind: value.Int})
	b := schema.MustNew(schema.Column{Name: "k", Kind: value.Float})
	j := ConcatSchemas("l", a, "r", b)
	if j.NumCols() != 2 {
		t.Fatalf("NumCols = %d", j.NumCols())
	}
	if j.Index("l.k") != 0 || j.Index("r.k") != 1 {
		t.Errorf("prefixed names wrong: %s", j)
	}
}

func TestViews(t *testing.T) {
	rows := make([]Tuple, 10)
	for i := range rows {
		rows[i] = mkTuple(int64(i), 0, "v", 1)
	}
	views := Views(rows, 4)
	if len(views) != 3 {
		t.Fatalf("Views(10, 4) produced %d views, want 3", len(views))
	}
	total := 0
	for vi, v := range views {
		if vi < len(views)-1 && len(v) != 4 {
			t.Errorf("view %d has %d rows, want 4", vi, len(v))
		}
		for _, r := range v {
			if r[0].Int64() != int64(total) {
				t.Errorf("view row out of order: got id %d, want %d", r[0].Int64(), total)
			}
			total++
		}
		if len(v) > 0 && &v[0][0] != &rows[total-len(v)][0] {
			t.Errorf("view %d copies rows, want alias", vi)
		}
		if cap(v) != len(v) {
			t.Errorf("view %d cap %d > len %d — append could clobber the next view", vi, cap(v), len(v))
		}
	}
	if total != len(rows) {
		t.Errorf("views cover %d rows, want %d", total, len(rows))
	}
}

func TestViewsEdgeCases(t *testing.T) {
	if Views(nil, 4) != nil {
		t.Errorf("Views(nil) should be nil")
	}
	rows := []Tuple{mkTuple(1, 0, "a", 1), mkTuple(2, 0, "b", 1)}
	if got := Views(rows, 0); len(got) != 2 {
		t.Errorf("Views with size 0 should clamp to 1 row per view, got %d views", len(got))
	}
	if got := Views(rows, 100); len(got) != 1 || len(got[0]) != 2 {
		t.Errorf("oversized view split wrong: %d views", len(got))
	}
}
