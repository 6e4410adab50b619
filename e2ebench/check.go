package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/querytotext"
	"repro/internal/storage"
	"repro/internal/value"
)

// largeThreshold is core.Config's default LargeThreshold: answers with more
// rows are "large" and must carry feedback.
const largeThreshold = 100

// checkVerification is the verification contract: the text is non-empty
// and names every string constant of the question.
func checkVerification(q question, tr *querytotext.Translation) error {
	if tr == nil || strings.TrimSpace(tr.Text) == "" {
		return fmt.Errorf("%s: empty verification for %q", q.class, q.sql)
	}
	for _, s := range q.strs {
		if !strings.Contains(tr.Text, s) {
			return fmt.Errorf("%s: verification %q does not name %q", q.class, tr.Text, s)
		}
	}
	return nil
}

// checkAnswer compares an executed answer with the model and checks that
// empty and large answers carry feedback.
func checkAnswer(q question, m *model, resp *core.Response) error {
	if resp.Result == nil {
		return fmt.Errorf("%s: no result for %q", q.class, q.sql)
	}
	got := resp.Result.Rows
	want := q.expected(m)
	if err := sameRows(want, got, q.ordered); err != nil {
		return fmt.Errorf("%s: %q: %v", q.class, q.sql, err)
	}
	if (len(got) == 0 || len(got) > largeThreshold) && strings.TrimSpace(resp.Feedback) == "" {
		return fmt.Errorf("%s: %d-row answer without feedback for %q", q.class, len(got), q.sql)
	}
	return nil
}

func sameRows(want [][]value.Value, got []storage.Tuple, ordered bool) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	w := make([]string, len(want))
	g := make([]string, len(got))
	for i := range want {
		w[i] = rowKey(want[i])
		g[i] = rowKey(got[i])
	}
	if !ordered {
		sort.Strings(w)
		sort.Strings(g)
	}
	for i := range w {
		if w[i] != g[i] {
			return fmt.Errorf("row %d is %q, want %q", i, g[i], w[i])
		}
	}
	return nil
}

// sameResponse checks that a cache hit returned what the cold ask did.
func sameResponse(cold, hit *core.Response) error {
	if cold == hit {
		return nil
	}
	if cold.Answer != hit.Answer || cold.Feedback != hit.Feedback || cold.Verification.Text != hit.Verification.Text {
		return fmt.Errorf("cached response differs from the cold ask")
	}
	if cold.Result != nil && hit.Result != nil {
		want := make([][]value.Value, len(cold.Result.Rows))
		for i, r := range cold.Result.Rows {
			want[i] = r
		}
		return sameRows(want, hit.Result.Rows, true)
	}
	return nil
}

// checkDescription checks the validation text of a movie names its title
// and year.
func checkDescription(text string, mv *movie) error {
	if !strings.Contains(text, mv.title) || !strings.Contains(text, strconv.FormatInt(mv.year, 10)) {
		return fmt.Errorf("description %q does not name %q (%d)", text, mv.title, mv.year)
	}
	return nil
}
