package predeval

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// idsHash is the FNV-64a hash of the row ids in order, each as 8
// little-endian bytes.
func idsHash(ids []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestQueryGoldenPerShape pins DB.Query's output for every plan shape at a
// fixed seed: the row-id count, a hash of the ids in order, and the full
// Stats. Any change to the execution path must leave these bit-identical;
// a deliberate change to an algorithm updates them here.
func TestQueryGoldenPerShape(t *testing.T) {
	cases := []struct {
		name  string
		sql   string
		count int
		hash  uint64
		stats Stats
	}{
		{"exact", "SELECT * FROM loans WHERE good_credit(id) = 1",
			294, 0xc20033621befb7b2,
			Stats{Evaluations: 600, Retrievals: 600, Cost: 2400, Exact: true, CacheMisses: 600}},
		{"exact+filter", "SELECT id FROM loans WHERE grade = 'B' AND good_credit(id) = 1",
			94, 0x5740f67c1a162386,
			Stats{Evaluations: 200, Retrievals: 200, Cost: 800, Exact: true, CacheMisses: 200}},
		{"conjunction waves", "SELECT * FROM loans WHERE good_credit(id) = 1 AND rich(income) = 1",
			122, 0xf0568524fa5457f3,
			Stats{Evaluations: 894, Retrievals: 600, Cost: 3282, Exact: true, CacheMisses: 894}},
		{"greedy approx conjunction",
			"SELECT * FROM loans WHERE good_credit(id) = 1 AND rich(income) = 1 AND div3(id) = 1 WITH PRECISION 0.8 GROUP ON grade",
			71, 0xd9c3d761db30f27d,
			Stats{Evaluations: 1093, Retrievals: 600, Cost: 3879, ChosenColumn: "grade", Sampled: 141, Exact: true, CacheMisses: 1093}},
		{"pinned approx",
			"SELECT * FROM loans WHERE good_credit(id) = 1 WITH PRECISION 0.9 RECALL 0.85 PROBABILITY 0.9 GROUP ON grade",
			277, 0xc0f07b2792273fed,
			Stats{Evaluations: 450, Retrievals: 450, Cost: 1800, ChosenColumn: "grade", Sampled: 159, CacheMisses: 450}},
		{"auto-discovered column", "SELECT * FROM loans WHERE good_credit(id) = 1 WITH RECALL 0.8",
			260, 0xc69d894e0efc92bd,
			Stats{Evaluations: 413, Retrievals: 413, Cost: 1652, ChosenColumn: "grade", Sampled: 159, CacheMisses: 413}},
		{"virtual column", "SELECT * FROM loans WHERE good_credit(id) = 1 WITH RECALL 0.8 GROUP ON virtual",
			265, 0x9ae7af72ebc9e580,
			Stats{Evaluations: 512, Retrievals: 512, Cost: 2048, ChosenColumn: "virtual", Sampled: 160, CacheMisses: 512}},
		{"budget", "SELECT * FROM loans WHERE good_credit(id) = 1 WITH RECALL 0.8 BUDGET 900 GROUP ON grade",
			134, 0xa5b6eaf18cb866de,
			Stats{Evaluations: 228, Retrievals: 228, Cost: 912, ChosenColumn: "grade", Sampled: 159, AchievedRecallBound: 0.3639187375920301, CacheMisses: 228}},
		{"two-predicate",
			"SELECT * FROM loans WHERE good_credit(id) = 1 AND rich(income) = 1 WITH PRECISION 0.8 GROUP ON grade",
			122, 0xf0568524fa5457f3,
			Stats{Evaluations: 964, Retrievals: 600, Cost: 3492, ChosenColumn: "grade", Sampled: 141, CacheMisses: 964}},
		{"select-join",
			"SELECT * FROM loans JOIN orders ON loans.id = orders.loan_id WHERE good_credit(id) = 1 WITH RECALL 0.8 GROUP ON grade",
			24, 0x5e7211b9aa43a3ae,
			Stats{Evaluations: 44, Retrievals: 44, Cost: 176, ChosenColumn: "grade", Sampled: 30, CacheMisses: 44}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh DB per shape: the RNG stream and the outcome cache
			// start identically, so each pin is independent of case order.
			rows, err := explainDB(t).Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			ids := rows.RowIDs()
			if len(ids) != tc.count || idsHash(ids) != tc.hash || rows.Stats() != tc.stats {
				t.Errorf("got %d, %#x, %#v\nwant %d, %#x, %#v",
					len(ids), idsHash(ids), rows.Stats(), tc.count, tc.hash, tc.stats)
			}
		})
	}
}
