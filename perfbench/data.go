package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/dataset"
)

// genTable is one generated input table: the CSV bytes the program sees,
// and the ground truth only the benchmark keeps.
type genTable struct {
	name string // SQL table name (the dataset name)
	udf  string // main UDF name: <name>_ok, the dataset's hidden label
	csv  []byte
	rows int
	// header lists the CSV columns in order.
	header []string
	// values holds the columns the benchmark needs for scoping filters,
	// one string per row id (ids are 0..rows-1).
	values map[string][]string
	// truth holds each registered UDF's verdict per row id.
	truth map[string][]bool
}

// tableOptions selects the benchmark-made extras of a generated table.
type tableOptions struct {
	// extraUDFs adds <name>_recent (rate rising with the correlated group,
	// for the §5 two-predicate and conjunction shapes) and <name>_big
	// (rate 1/2, independent), both keyed by id.
	extraUDFs bool
	// channel adds a 'web'/'branch' column whose value shifts the label
	// rate inside every group (P(web | label) = .8, P(web | ¬label) = .2),
	// so evidence sampled under one channel filter is biased for the other.
	channel bool
}

// generateTable synthesizes a calibrated dataset stand-in at the given
// scale, deterministically for the seed.
func generateTable(spec dataset.Spec, scale float64, seed uint64, opt tableOptions) (*genTable, error) {
	if scale != 1 {
		spec = spec.Scaled(scale)
	}
	d, err := dataset.Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	tbl := d.Table
	n := tbl.NumRows()
	g := &genTable{
		name:   spec.Name,
		udf:    spec.Name + "_ok",
		rows:   n,
		values: map[string][]string{},
		truth:  map[string][]bool{spec.Name + "_ok": d.Labels},
	}
	groupCol := tbl.ColumnByName(spec.Predictor)
	groups := make([]string, n)
	for r := range groups {
		groups[r] = groupCol.StringAt(r)
	}
	g.values[spec.Predictor] = groups

	rng := rand.New(rand.NewPCG(seed, hashString(spec.Name)))
	if opt.extraUDFs {
		rank := groupRanks(groups)
		recent := make([]bool, n)
		big := make([]bool, n)
		for r := range recent {
			recent[r] = rng.Float64() < 0.2+0.6*rank[groups[r]]
			big[r] = rng.Float64() < 0.5
		}
		g.truth[spec.Name+"_recent"] = recent
		g.truth[spec.Name+"_big"] = big
	}
	header := tbl.Schema().Names()
	if opt.channel {
		ch := make([]string, n)
		for r := range ch {
			p := 0.2
			if d.Labels[r] {
				p = 0.8
			}
			ch[r] = "branch"
			if rng.Float64() < p {
				ch[r] = "web"
			}
		}
		g.values["channel"] = ch
		header = append(header, "channel")
	}

	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(header); err != nil {
		return nil, err
	}
	rec := make([]string, len(header))
	width := tbl.Schema().Len()
	for r := 0; r < n; r++ {
		for j := 0; j < width; j++ {
			rec[j] = tbl.CellString(r, j)
		}
		if opt.channel {
			rec[width] = g.values["channel"][r]
		}
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	g.csv = buf.Bytes()
	g.header = header
	return g, nil
}

// groupRanks maps each distinct value to its position in sorted order,
// scaled to [0, 1].
func groupRanks(values []string) map[string]float64 {
	seen := map[string]bool{}
	var keys []string
	for _, v := range values {
		if !seen[v] {
			seen[v] = true
			keys = append(keys, v)
		}
	}
	sort.Strings(keys)
	out := make(map[string]float64, len(keys))
	for i, k := range keys {
		out[k] = float64(i) / float64(max(len(keys)-1, 1))
	}
	return out
}

// joinTable is the generated right side of the selection-before-join
// shape: every base row id appears 0-3 times as a loan_id.
type joinTable struct {
	name string
	csv  []byte
	mult []float64 // join multiplicity per base row id
}

func generateJoinTable(name string, baseRows int, seed uint64) (*joinTable, error) {
	rng := rand.New(rand.NewPCG(seed, hashString(name)))
	jt := &joinTable{name: name, mult: make([]float64, baseRows)}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write([]string{"order_id", "loan_id"}); err != nil {
		return nil, err
	}
	next := 0
	for r := 0; r < baseRows; r++ {
		m := []int{0, 1, 1, 2, 3}[rng.IntN(5)]
		jt.mult[r] = float64(m)
		for k := 0; k < m; k++ {
			if err := w.Write([]string{strconv.Itoa(next), strconv.Itoa(r)}); err != nil {
				return nil, err
			}
			next++
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	jt.csv = buf.Bytes()
	return jt, nil
}

// writeInputs writes a table's CSV and its main UDF's labels file (id,label)
// into dir, for the server workload, and returns both paths.
func writeInputs(dir string, t *genTable) (csvPath, labelsPath string, err error) {
	csvPath = filepath.Join(dir, t.name+".csv")
	if err := os.WriteFile(csvPath, t.csv, 0o644); err != nil {
		return "", "", err
	}
	var buf bytes.Buffer
	buf.WriteString("id,label\n")
	for id, v := range t.truth[t.udf] {
		b := 0
		if v {
			b = 1
		}
		fmt.Fprintf(&buf, "%d,%d\n", id, b)
	}
	labelsPath = filepath.Join(dir, t.name+"_labels.csv")
	if err := os.WriteFile(labelsPath, buf.Bytes(), 0o644); err != nil {
		return "", "", err
	}
	return csvPath, labelsPath, nil
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
