package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/value"
)

// question is one generated input: its SQL, the string constants its
// verification text must name, and the reference answer computed from the
// model at check time.
type question struct {
	class    string
	sql      string
	strs     []string
	execute  bool // false: verification only (System.DescribeQuery)
	ordered  bool // the answer's row order is part of the answer
	expected func(*model) [][]value.Value
}

// template generates the questions of one class: space holds its parameter
// codes in a seeded order and build renders one code as a question.
type template struct {
	space []int // parameter codes, shuffled once per seed
	build func(code int) question
}

// hotReserve codes at the end of every space are kept for verify-adhoc's hot
// set, so no cold question repeats a hot one.
const hotReserve = 4

func (t *template) at(i int) question { return t.build(t.space[i%(len(t.space)-hotReserve)]) }

func (t *template) hotAt(j int) question { return t.build(t.space[len(t.space)-1-j]) }

// newTemplate enumerates n parameter codes and shuffles them with rng.
func newTemplate(rng *rand.Rand, n int, build func(code int) question) *template {
	return &template{space: rng.Perm(n), build: build}
}

var I, T = value.NewInt, value.NewText

func yearOf(code int) int64 { return int64(firstYear + code%yearSpan) }

// verifyTemplates are the paper's query classes Q1-Q9, each filled with a
// seeded constant. Q5 (nested IN), Q6 (division) and Q9 (<= ALL) are asked
// for their verification only: the engine re-executes their subqueries once
// per outer row, which takes seconds even on this small database (see the
// README), so executing them would measure that one defect and nothing else.
func verifyTemplates(rng *rand.Rand, m *model) []*template {
	nm, na, nd := len(m.movieIDs), len(m.actors), len(m.directors)
	return []*template{
		newTemplate(rng, na*yearSpan, func(code int) question {
			a := m.actors[code/yearSpan]
			y := yearOf(code)
			return question{
				class: "Q1-path", execute: true, strs: []string{a.name},
				sql: fmt.Sprintf("select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and a.name = '%s' and m.year >= %d", a.name, y),
				expected: func(m *model) (out [][]value.Value) {
					for _, mid := range m.castByActor[a.id] {
						if mv := m.movies[mid]; mv != nil && mv.year >= y {
							out = append(out, []value.Value{T(mv.title)})
						}
					}
					return out
				},
			}
		}),
		newTemplate(rng, nd*len(genreNames)*yearSpan, func(code int) question {
			d := m.directors[code/(len(genreNames)*yearSpan)]
			g := genreNames[code/yearSpan%len(genreNames)]
			y := yearOf(code)
			return question{
				class: "Q2-subgraph", execute: true, strs: []string{d.name, g},
				sql: fmt.Sprintf("select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id and m.id = g.mid and d.name = '%s' and g.genre = '%s' and m.year >= %d", d.name, g, y),
				expected: func(m *model) (out [][]value.Value) {
					for _, mid := range m.moviesByDir[d.id] {
						mv := m.movies[mid]
						if mv == nil || mv.year < y || !contains(m.genres[mid], g) {
							continue
						}
						for _, c := range m.castByMovie[mid] {
							out = append(out, []value.Value{T(m.actors[c.aid-1].name), T(mv.title)})
						}
					}
					return out
				},
			}
		}),
		newTemplate(rng, nm*5, func(code int) question {
			lo, hi := window(code, 5, nm)
			return question{
				class: "Q3-multi-instance", execute: true,
				sql: fmt.Sprintf("select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id and a1.id > a2.id and m.id between %d and %d", lo, hi),
				expected: func(m *model) (out [][]value.Value) {
					for mid := lo; mid <= hi; mid++ {
						if m.movies[mid] == nil {
							continue
						}
						for _, c1 := range m.castByMovie[mid] {
							for _, c2 := range m.castByMovie[mid] {
								if c1.aid > c2.aid {
									out = append(out, []value.Value{T(m.actors[c1.aid-1].name), T(m.actors[c2.aid-1].name)})
								}
							}
						}
					}
					return out
				},
			}
		}),
		newTemplate(rng, nm*10, func(code int) question {
			lo, hi := window(code, 10, nm)
			return question{
				class: "Q4-cyclic", execute: true,
				sql: fmt.Sprintf("select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title and m.id between %d and %d", lo, hi),
				expected: func(m *model) (out [][]value.Value) {
					for mid := lo; mid <= hi; mid++ {
						mv := m.movies[mid]
						if mv == nil {
							continue
						}
						for _, c := range m.castByMovie[mid] {
							if c.role == mv.title {
								out = append(out, []value.Value{T(mv.title)})
							}
						}
					}
					return out
				},
			}
		}),
		newTemplate(rng, na*yearSpan, func(code int) question {
			a := m.actors[code/yearSpan]
			return question{
				class: "Q5-nested", strs: []string{a.name},
				sql: fmt.Sprintf("select m.title from MOVIES m where m.id in (select c.mid from CAST c where c.aid in (select a.id from ACTOR a where a.name = '%s')) and m.year >= %d", a.name, yearOf(code)),
			}
		}),
		newTemplate(rng, nm*10, func(code int) question {
			lo, hi := window(code, 10, nm)
			return question{
				class: "Q6-division",
				sql:   fmt.Sprintf("select m.title from MOVIES m where m.id between %d and %d and not exists (select * from GENRE g1 where not exists (select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))", lo, hi),
			}
		}),
		newTemplate(rng, nm*6, func(code int) question {
			lo, hi := window(code, 6, nm)
			return question{
				class: "Q7-aggregate", execute: true,
				sql: fmt.Sprintf("select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid and m.id between %d and %d group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)", lo, hi),
				expected: func(m *model) (out [][]value.Value) {
					for mid := lo; mid <= hi; mid++ {
						mv := m.movies[mid]
						if mv == nil || len(m.castByMovie[mid]) == 0 || len(m.genres[mid]) <= 1 {
							continue
						}
						out = append(out, []value.Value{I(mid), T(mv.title), I(int64(len(m.castByMovie[mid])))})
					}
					return out
				},
			}
		}),
		newTemplate(rng, na*20, func(code int) question {
			lo, hi := window(code, 20, na)
			return question{
				class: "Q8-same-year", execute: true,
				sql: fmt.Sprintf("select a.id, a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and a.id between %d and %d group by a.id, a.name having count(distinct m.year) = 1", lo, hi),
				expected: func(m *model) (out [][]value.Value) {
					for aid := lo; aid <= hi; aid++ {
						if sameYear(m, aid) {
							out = append(out, []value.Value{I(aid), T(m.actors[aid-1].name)})
						}
					}
					return out
				},
			}
		}),
		newTemplate(rng, nm*10, func(code int) question {
			lo, hi := window(code, 10, nm)
			return question{
				class: "Q9-earliest",
				sql:   fmt.Sprintf("select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and m.id between %d and %d and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 where m1.title = m.title and m2.title = m.title and m1.id != m2.id)", lo, hi),
			}
		}),
	}
}

// constantProbe is the paper's Q8 narrowed to one actor by name. Its text is
// fixed, so it is asked the same way under every seed. The verification the
// program gives for it drops the name; see the README.
func constantProbe() question {
	const name = "Fay Wray"
	return question{
		class: "probe-Q8-named", execute: true, strs: []string{name},
		sql: "select a.id, a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id and a.name = '" + name + "' group by a.id, a.name having count(distinct m.year) = 1",
		expected: func(m *model) (out [][]value.Value) {
			for _, a := range m.actors {
				if a.name == name && sameYear(m, a.id) {
					out = append(out, []value.Value{I(a.id), T(a.name)})
				}
			}
			return out
		},
	}
}

func sameYear(m *model, aid int64) bool {
	years := map[int64]bool{}
	for _, mid := range m.castByActor[aid] {
		if mv := m.movies[mid]; mv != nil {
			years[mv.year] = true
		}
	}
	return len(years) == 1
}

// window decodes code into an id range [lo, lo+width] with width < widths,
// clipped to n.
func window(code, widths, n int) (int64, int64) {
	lo := int64(code/widths + 1)
	hi := lo + int64(code%widths)
	if hi > int64(n) {
		hi = int64(n)
	}
	return lo, hi
}

// analystTemplates are the scan-heavy questions of analyst-scan. Each class
// scans a fixed number of years, so its cost varies little with its
// constants. The classes differ in cost by up to two orders of magnitude, so
// a round's mix decides where the percentiles fall: analystRound asks the
// last class twice, and of its eleven questions the sixth in cost (A4) holds
// the median and the slowest pair holds the 90th percentile, each inside one
// class's distribution rather than in a gap between two.
func analystTemplates(rng *rand.Rand, m *model) []*template {
	nd := len(m.directors)
	// window maps code to a year range of width years starting anywhere in
	// the data.
	window := func(code int, width int64) (int64, int64) {
		lo := int64(firstYear) + int64(code)%(yearSpan-width+1)
		return lo, lo + width - 1
	}
	return []*template{
		newTemplate(rng, yearSpan*20, func(code int) question {
			lo, hi := window(code/20, int64(1+code%20))
			return question{
				class: "A1-zone-count", execute: true,
				sql: fmt.Sprintf("select count(*) from MOVIES m where m.year between %d and %d", lo, hi),
				expected: func(m *model) [][]value.Value {
					var n int64
					m.moviesIn(lo, hi, func(*movie) { n++ })
					return [][]value.Value{{I(n)}}
				},
			}
		}),
		newTemplate(rng, (yearSpan-9)*20, func(code int) question {
			lo, hi := window(code/20, 10)
			k := 5 + code%20
			return question{
				class: "A2-top-k", execute: true, ordered: true,
				sql: fmt.Sprintf("select m.title, m.year from MOVIES m where m.year between %d and %d order by m.year desc, m.title limit %d", lo, hi, k),
				expected: func(m *model) (out [][]value.Value) {
					var pick []*movie
					m.moviesIn(lo, hi, func(mv *movie) { pick = append(pick, mv) })
					sort.Slice(pick, func(i, j int) bool {
						if pick[i].year != pick[j].year {
							return pick[i].year > pick[j].year
						}
						return pick[i].title < pick[j].title
					})
					for i := 0; i < len(pick) && i < k; i++ {
						out = append(out, []value.Value{T(pick[i].title), I(pick[i].year)})
					}
					return out
				},
			}
		}),
		newTemplate(rng, (yearSpan-1)*len(titleAdjectives), func(code int) question {
			adj := titleAdjectives[code%len(titleAdjectives)]
			lo, hi := window(code/len(titleAdjectives), 2)
			pat := adj + " %"
			return question{
				class: "A3-zone-scan", execute: true, strs: []string{pat},
				sql: fmt.Sprintf("select m.title, m.year from MOVIES m where m.year between %d and %d and m.title like '%s'", lo, hi, pat),
				expected: func(m *model) (out [][]value.Value) {
					m.moviesIn(lo, hi, func(mv *movie) {
						if strings.HasPrefix(mv.title, adj+" ") {
							out = append(out, []value.Value{T(mv.title), I(mv.year)})
						}
					})
					return out
				},
			}
		}),
		newTemplate(rng, nd*yearSpan, func(code int) question {
			d := m.directors[code/yearSpan]
			y := yearOf(code)
			return question{
				class: "A4-director-join", execute: true, strs: []string{d.name},
				sql: fmt.Sprintf("select m.title, m.year from MOVIES m, DIRECTED r, DIRECTOR d where m.id = r.mid and r.did = d.id and d.name = '%s' and m.year >= %d", d.name, y),
				expected: func(m *model) (out [][]value.Value) {
					for _, mid := range m.moviesByDir[d.id] {
						if mv := m.movies[mid]; mv != nil && mv.year >= y {
							out = append(out, []value.Value{T(mv.title), I(mv.year)})
						}
					}
					return out
				},
			}
		}),
		newTemplate(rng, (yearSpan-1)*len(genreNames), func(code int) question {
			g := genreNames[code%len(genreNames)]
			lo, hi := window(code/len(genreNames), 2)
			return question{
				class: "A5-genre-years", execute: true, strs: []string{g},
				sql: fmt.Sprintf("select m.title, m.year from MOVIES m, GENRE g where m.id = g.mid and g.genre = '%s' and m.year between %d and %d", g, lo, hi),
				expected: func(m *model) (out [][]value.Value) {
					m.moviesIn(lo, hi, func(mv *movie) {
						if contains(m.genres[mv.id], g) {
							out = append(out, []value.Value{T(mv.title), I(mv.year)})
						}
					})
					return out
				},
			}
		}),
		newTemplate(rng, (yearSpan-9)*len(genreNames), func(code int) question {
			lo, hi := window(code/len(genreNames), 10)
			skip := genreNames[code%len(genreNames)]
			return question{
				class: "A6-genre-agg", execute: true, strs: []string{skip},
				sql: fmt.Sprintf("select g.genre, count(*) from MOVIES m, GENRE g where m.id = g.mid and g.genre <> '%s' and m.year between %d and %d group by g.genre", skip, lo, hi),
				expected: func(m *model) (out [][]value.Value) {
					counts := map[string]int64{}
					m.moviesIn(lo, hi, func(mv *movie) {
						for _, g := range m.genres[mv.id] {
							if g != skip {
								counts[g]++
							}
						}
					})
					for g, n := range counts {
						out = append(out, []value.Value{T(g), I(n)})
					}
					return out
				},
			}
		}),
		newTemplate(rng, len(m.movieIDs), func(code int) question {
			mv := m.movies[m.movieIDs[code]]
			return question{
				class: "A7-title-lookup", execute: true, strs: []string{mv.title},
				sql: fmt.Sprintf("select m.id, m.year from MOVIES m where m.title = '%s'", mv.title),
				expected: func(m *model) (out [][]value.Value) {
					if cur := m.movies[mv.id]; cur != nil {
						out = append(out, []value.Value{I(cur.id), I(cur.year)})
					}
					return out
				},
			}
		}),
		newTemplate(rng, (yearSpan-7)*8, func(code int) question {
			lo, hi := window(code/8, 8)
			minCast := 1 + code%8
			return question{
				class: "A8-cast-agg", execute: true,
				sql: fmt.Sprintf("select m.year, count(*) from MOVIES m, CAST c where m.id = c.mid and m.year between %d and %d and c.aid >= %d group by m.year", lo, hi, minCast),
				expected: func(m *model) (out [][]value.Value) {
					counts := map[int64]int64{}
					m.moviesIn(lo, hi, func(mv *movie) {
						for _, c := range m.castByMovie[mv.id] {
							if c.aid >= int64(minCast) {
								counts[mv.year]++
							}
						}
					})
					for y, n := range counts {
						out = append(out, []value.Value{I(y), I(n)})
					}
					return out
				},
			}
		}),
		newTemplate(rng, nd, func(code int) question {
			d := m.directors[code]
			return question{
				class: "A0-director-lookup", execute: true, strs: []string{d.name},
				sql: fmt.Sprintf("select d.bdate, d.blocation from DIRECTOR d where d.name = '%s'", d.name),
				expected: func(m *model) [][]value.Value {
					return [][]value.Value{{value.NewDate(d.bdate), T(d.bloc)}}
				},
			}
		}),
		newTemplate(rng, nd*10, func(code int) question {
			d := m.directors[code/10]
			y := int64(firstYear + yearSpan + code%10)
			return question{
				class: "A9-empty", execute: true, strs: []string{d.name},
				sql: fmt.Sprintf("select m.title from MOVIES m, DIRECTED r, DIRECTOR d where m.id = r.mid and r.did = d.id and d.name = '%s' and m.year >= %d", d.name, y),
				expected: func(m *model) (out [][]value.Value) {
					for _, mid := range m.moviesByDir[d.id] {
						if mv := m.movies[mid]; mv != nil && mv.year >= y {
							out = append(out, []value.Value{T(mv.title)})
						}
					}
					return out
				},
			}
		}),
	}
}

// yearCount is the follower question of ingest-validate. Its text depends
// only on the year, so parse and translation caches hit while every applied
// write moves the snapshot and the response cache misses.
func yearCount(y int64) question {
	return question{
		class: "F-year-count", execute: true,
		sql: fmt.Sprintf("select count(*) from MOVIES m where m.year = %d", y),
		expected: func(m *model) [][]value.Value {
			return [][]value.Value{{I(int64(len(m.byYear[y])))}}
		},
	}
}
