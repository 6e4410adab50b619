package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

// The reference model: the benchmark's own copy of every row it hands the
// program, plus the indexes its plain-Go evaluators need. Nothing here
// imports the engine or the planner, so an answer the model agrees with was
// checked independently of the code that produced it.

type movie struct {
	id    int64
	title string
	year  int64
}

type actor struct {
	id   int64
	name string
}

type castEntry struct {
	mid, aid int64
	role     string
}

type director struct {
	id    int64
	name  string
	bdate time.Time
	bloc  string
}

type model struct {
	movies    map[int64]*movie
	movieIDs  []int64 // ascending
	byYear    map[int64][]int64
	actors    []actor // index id-1
	directors []director
	cast      []castEntry
	directed  map[int64]int64 // mid -> did
	genres    map[int64][]string

	castByMovie map[int64][]castEntry
	castByActor map[int64][]int64 // aid -> mids
	moviesByDir map[int64][]int64
	nextMovieID int64
}

// scale sizes one generated database. Every movie has castPer actors and
// one to maxGenres genres, so the shape of the data, and with it the cost of
// a question, varies little from seed to seed.
type scale struct {
	movies, actors, directors int
	castPer, maxGenres        int
}

var genreNames = []string{"action", "drama", "comedy", "sci-fi", "adventure", "thriller", "romance", "documentary"}

var firstNames = []string{
	"Alex", "Maria", "Nikos", "Elena", "James", "Sofia", "Omar", "Lena",
	"Brad", "Naomi", "Keanu", "Grace", "Raj", "Ada", "Tom", "Fay",
	"Iris", "Paul", "Nora", "Felix", "Mira", "Hugo", "Clara", "Ivan",
}

var lastNames = []string{
	"Papadopoulos", "Rossi", "Smith", "Chen", "Patel", "Novak", "Brook",
	"Haddad", "Ioannidis", "Simitsis", "Koutrika", "Wray", "Lange", "Watts",
	"Moreau", "Okafor", "Lindqvist", "Tanaka", "Silva", "Kowalski",
}

var titleAdjectives = []string{
	"Silent", "Crimson", "Endless", "Broken", "Golden", "Hidden", "Last",
	"Distant", "Quiet", "Burning", "Frozen", "Electric",
}

var titleNouns = []string{
	"Horizon", "Empire", "Garden", "Winter", "Voyage", "Memory", "Station",
	"Harbor", "Signal", "Mirror", "Canyon", "Orchard",
}

const (
	firstYear = 1950
	yearSpan  = 60
)

// generate builds the model for one seed. Movies are numbered in release
// order (year grows with id), so zone maps over MOVIES.year can prune a
// year-range scan the way they would on a table loaded as films come out.
// The seed picks names, titles and genres and deals actors to movies and
// movies to directors; the dealing gives every actor and every director the
// same number of movies. Names and titles carry the row id, so every entity
// is addressable by its heading attribute.
func generate(seed int64, sc scale) *model {
	rng := rand.New(rand.NewSource(seed))
	m := &model{
		movies:      make(map[int64]*movie, sc.movies),
		byYear:      make(map[int64][]int64, yearSpan+1),
		directed:    make(map[int64]int64, sc.movies),
		genres:      make(map[int64][]string, sc.movies),
		castByMovie: make(map[int64][]castEntry, sc.movies),
		castByActor: make(map[int64][]int64, sc.actors),
		moviesByDir: make(map[int64][]int64, sc.directors),
	}
	person := func(id int) string {
		return fmt.Sprintf("%s %s %d", firstNames[rng.Intn(len(firstNames))], lastNames[rng.Intn(len(lastNames))], id)
	}
	for d := 1; d <= sc.directors; d++ {
		m.directors = append(m.directors, director{
			id:    int64(d),
			name:  person(d),
			bdate: time.Date(1920+rng.Intn(60), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
			bloc:  lastNames[rng.Intn(len(lastNames))] + " City",
		})
	}
	for a := 1; a <= sc.actors; a++ {
		m.actors = append(m.actors, actor{id: int64(a), name: person(a)})
	}
	actors := dealer(rng, sc.actors)
	directors := dealer(rng, sc.directors)
	for i := 0; i < sc.movies; i++ {
		mid := int64(i + 1)
		year := int64(firstYear + i*yearSpan/sc.movies)
		title := fmt.Sprintf("%s %s %d", titleAdjectives[rng.Intn(len(titleAdjectives))], titleNouns[rng.Intn(len(titleNouns))], mid)
		m.addMovie(&movie{id: mid, title: title, year: year})
		did := directors()
		m.directed[mid] = did
		m.moviesByDir[did] = append(m.moviesByDir[did], mid)
		for c := 0; c < sc.castPer; c++ {
			aid := actors()
			if containsCast(m.castByMovie[mid], aid) {
				continue // the deal wrapped inside this movie
			}
			role := fmt.Sprintf("Role %d-%d", mid, aid)
			if (i*sc.castPer+c)%25 == 0 {
				role = title // the cyclic idiom: a movie whose title is one of its roles
			}
			ce := castEntry{mid: mid, aid: aid, role: role}
			m.cast = append(m.cast, ce)
			m.castByMovie[mid] = append(m.castByMovie[mid], ce)
			m.castByActor[aid] = append(m.castByActor[aid], mid)
		}
		for _, g := range rng.Perm(len(genreNames))[:1+i%sc.maxGenres] {
			m.genres[mid] = append(m.genres[mid], genreNames[g])
		}
	}
	m.nextMovieID = int64(sc.movies) + 1
	return m
}

// dealer returns ids 1..n in rounds, each round a fresh seeded shuffle, so
// every id is dealt equally often.
func dealer(rng *rand.Rand, n int) func() int64 {
	var round []int
	return func() int64 {
		if len(round) == 0 {
			round = rng.Perm(n)
		}
		id := round[0] + 1
		round = round[1:]
		return int64(id)
	}
}

func containsCast(cs []castEntry, aid int64) bool {
	for _, c := range cs {
		if c.aid == aid {
			return true
		}
	}
	return false
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func (m *model) addMovie(mv *movie) {
	m.movies[mv.id] = mv
	m.movieIDs = append(m.movieIDs, mv.id)
	m.byYear[mv.year] = append(m.byYear[mv.year], mv.id)
}

func (m *model) deleteMovie(id int64) {
	mv := m.movies[id]
	delete(m.movies, id)
	m.byYear[mv.year] = remove(m.byYear[mv.year], id)
	i := sort.Search(len(m.movieIDs), func(i int) bool { return m.movieIDs[i] >= id })
	if i < len(m.movieIDs) && m.movieIDs[i] == id {
		m.movieIDs = append(m.movieIDs[:i], m.movieIDs[i+1:]...)
	}
}

func (m *model) setYear(id, year int64) {
	mv := m.movies[id]
	m.byYear[mv.year] = remove(m.byYear[mv.year], id)
	mv.year = year
	m.byYear[year] = append(m.byYear[year], id)
}

func remove(ids []int64, id int64) []int64 {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// moviesIn calls f for every movie released in [lo, hi].
func (m *model) moviesIn(lo, hi int64, f func(*movie)) {
	for y := lo; y <= hi; y++ {
		for _, id := range m.byYear[y] {
			f(m.movies[id])
		}
	}
}

// rows counts every tuple the model hands the program.
func (m *model) rows() int {
	n := len(m.movies) + len(m.actors) + len(m.directors) + len(m.cast) + len(m.directed)
	for _, g := range m.genres {
		n += len(g)
	}
	return n
}

// load inserts the model's rows into db through the ordinary storage API, in
// foreign-key order.
func (m *model) load(db *storage.Database) error {
	I, T := value.NewInt, value.NewText
	for _, d := range m.directors {
		if err := db.Insert("DIRECTOR", storage.Tuple{I(d.id), T(d.name), value.NewDate(d.bdate), T(d.bloc)}); err != nil {
			return err
		}
	}
	for _, a := range m.actors {
		if err := db.Insert("ACTOR", storage.Tuple{I(a.id), T(a.name)}); err != nil {
			return err
		}
	}
	for _, id := range m.movieIDs {
		mv := m.movies[id]
		if err := db.Insert("MOVIES", storage.Tuple{I(mv.id), T(mv.title), I(mv.year)}); err != nil {
			return err
		}
		if err := db.Insert("DIRECTED", storage.Tuple{I(mv.id), I(m.directed[mv.id])}); err != nil {
			return err
		}
		for _, g := range m.genres[mv.id] {
			if err := db.Insert("GENRE", storage.Tuple{I(mv.id), T(g)}); err != nil {
				return err
			}
		}
	}
	for _, c := range m.cast {
		if err := db.Insert("CAST", storage.Tuple{I(c.mid), I(c.aid), T(c.role)}); err != nil {
			return err
		}
	}
	return nil
}

// tableRows renders the model's expected contents of every table as sorted
// row keys, for whole-database comparisons against a follower or a
// recovered crash image.
func (m *model) tableRows() map[string][]string {
	out := map[string][]string{}
	add := func(rel string, vals ...value.Value) {
		out[rel] = append(out[rel], rowKey(vals))
	}
	I, T := value.NewInt, value.NewText
	for _, d := range m.directors {
		add("DIRECTOR", I(d.id), T(d.name), value.NewDate(d.bdate), T(d.bloc))
	}
	for _, a := range m.actors {
		add("ACTOR", I(a.id), T(a.name))
	}
	for _, id := range m.movieIDs {
		mv := m.movies[id]
		add("MOVIES", I(mv.id), T(mv.title), I(mv.year))
		if did, ok := m.directed[id]; ok {
			add("DIRECTED", I(id), I(did))
		}
		for _, g := range m.genres[id] {
			add("GENRE", I(id), T(g))
		}
	}
	for _, c := range m.cast {
		add("CAST", I(c.mid), I(c.aid), T(c.role))
	}
	for _, rows := range out {
		sort.Strings(rows)
	}
	return out
}

// dbRows reads the same rendering out of a storage snapshot.
func dbRows(src storage.TableSource) map[string][]string {
	out := map[string][]string{}
	for _, name := range []string{"DIRECTOR", "ACTOR", "MOVIES", "DIRECTED", "GENRE", "CAST"} {
		t := src.Table(name)
		if t == nil {
			continue
		}
		rows := make([]string, 0, t.Len())
		t.Scan(func(tup storage.Tuple) bool {
			rows = append(rows, rowKey(tup))
			return true
		})
		sort.Strings(rows)
		out[name] = rows
	}
	return out
}

// sameTables compares two renderings and names the first difference.
func sameTables(want, got map[string][]string) error {
	for _, rel := range []string{"DIRECTOR", "ACTOR", "MOVIES", "DIRECTED", "GENRE", "CAST"} {
		w, g := want[rel], got[rel]
		if len(w) != len(g) {
			return fmt.Errorf("%s holds %d rows, want %d", rel, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Errorf("%s row %q, want %q", rel, g[i], w[i])
			}
		}
	}
	return nil
}

func rowKey(vals []value.Value) string {
	b := make([]byte, 0, 64)
	for _, v := range vals {
		b = v.AppendKey(b)
		b = append(b, 0x1f)
	}
	return string(b)
}
