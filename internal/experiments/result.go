package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/render"
)

// Result is the uniform output of every registered experiment: a headline
// title, optional commentary notes (paper comparisons, selections), one
// or more named tables of typed rows, and optional map artifacts (2-D
// thermal fields). Consumers render it generically — text for the CLI,
// markdown for the reproduction report, JSON for machine use — so adding
// an experiment to the catalog requires no renderer changes anywhere.
type Result struct {
	// Name is the registry name the result came from.
	Name string `json:"name"`
	// Title is the headline, typically including the paper's published
	// values for comparison.
	Title string `json:"title"`
	// Resolution and Solver echo the RunConfig the result was produced
	// under.
	Resolution string `json:"resolution"`
	Solver     string `json:"solver"`
	// Notes are free-form commentary lines printed after the title.
	Notes []string `json:"notes,omitempty"`
	// Tables are the named data tables, in presentation order.
	Tables []Table `json:"tables"`
	// Maps are the rendered thermal-map artifacts, if any.
	Maps []MapArtifact `json:"maps,omitempty"`
}

// Table is one named table of a Result. Cells are typed — string, bool,
// int or float64 — so the JSON emitter keeps numbers as numbers while the
// text and markdown emitters format floats to the column's precision.
type Table struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// Column names one table column and fixes how float cells print.
type Column struct {
	Name string `json:"name"`
	// Prec is the decimal precision float cells render with (-1 = %g).
	Prec int `json:"prec"`
}

// Col is the column-literal shorthand the experiment wrappers use.
func Col(name string, prec int) Column { return Column{Name: name, Prec: prec} }

// AddRow appends one row; the cell count must match the column count.
func (t *Table) AddRow(cells ...any) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: table %q row has %d cells for %d columns", t.Name, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// MapArtifact is one 2-D thermal field an experiment renders (a die or
// package map) together with its grid geometry, so any consumer can turn
// it into ASCII art, CSV or SVG without knowing which experiment made it.
type MapArtifact struct {
	Name     string    `json:"name"`
	NX       int       `json:"nx"`
	NY       int       `json:"ny"`
	WidthMM  float64   `json:"width_mm"`
	HeightMM float64   `json:"height_mm"`
	CellC    []float64 `json:"cell_c"`
}

// Grid reconstructs the floorplan grid the map was sampled on.
func (m MapArtifact) Grid() floorplan.Grid {
	return floorplan.NewGrid(m.NX, m.NY, m.WidthMM, m.HeightMM)
}

// ArtifactSink receives map artifacts as an experiment emits them.
// cmd/paperbench implements it as a directory of SVG/CSV files; a nil
// sink in RunConfig discards nothing — the maps still ride on the Result.
type ArtifactSink interface {
	SaveMap(m MapArtifact) error
}

// newResult stamps the envelope fields every wrapper shares.
func newResult(name, title string, cfg RunConfig) *Result {
	return &Result{
		Name:       name,
		Title:      title,
		Resolution: cfg.Resolution.String(),
		Solver:     cfg.Solver.String(),
	}
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// addMap attaches a map artifact to the result and forwards it to the
// config's artifact sink, if one is set.
func (r *Result) addMap(cfg RunConfig, name string, grid floorplan.Grid, cellC []float64) error {
	m := MapArtifact{
		Name: name,
		NX:   grid.NX, NY: grid.NY,
		WidthMM:  grid.DX * float64(grid.NX),
		HeightMM: grid.DY * float64(grid.NY),
		CellC:    append([]float64(nil), cellC...),
	}
	r.Maps = append(r.Maps, m)
	if cfg.Artifacts != nil {
		return cfg.Artifacts.SaveMap(m)
	}
	return nil
}

// formatCell renders one typed cell for the text and markdown emitters.
func formatCell(v any, prec int) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case float64:
		if prec < 0 {
			return strconv.FormatFloat(x, 'g', -1, 64)
		}
		return strconv.FormatFloat(x, 'f', prec, 64)
	default:
		return fmt.Sprint(x)
	}
}

// strings returns the formatted header and rows of a table.
func (t *Table) strings() (header []string, rows [][]string) {
	header = make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Name
	}
	rows = make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		out := make([]string, len(row))
		for j, cell := range row {
			prec := -1
			if j < len(t.Columns) {
				prec = t.Columns[j].Prec
			}
			out[j] = formatCell(cell, prec)
		}
		rows[i] = out
	}
	return header, rows
}

// JSON emits the result as indented JSON. The encoding round-trips: a
// Result unmarshalled from it re-marshals to the same bytes (cells come
// back as float64/string/bool, which marshal identically).
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteText renders the result for a terminal: title, notes, and each
// table through the aligned text renderer. Maps are NOT rendered here —
// callers decide between ASCII art, files or nothing.
func (r *Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, r.Title); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	for i, t := range r.Tables {
		if len(r.Tables) > 1 {
			if _, err := fmt.Fprintf(w, "%s:\n", t.Name); err != nil {
				return err
			}
		}
		header, rows := t.strings()
		if err := render.Table(w, header, rows); err != nil {
			return err
		}
		if i < len(r.Tables)-1 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// Markdown renders the result as a GitHub-markdown section: an H2 title,
// the notes as a paragraph, and each table as a pipe table.
func (r *Result) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s\n\n", r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "%s\n", n)
	}
	if len(r.Notes) > 0 {
		sb.WriteString("\n")
	}
	for _, t := range r.Tables {
		if len(r.Tables) > 1 {
			fmt.Fprintf(&sb, "### %s\n\n", t.Name)
		}
		header, rows := t.strings()
		sb.WriteString("| " + strings.Join(header, " | ") + " |\n")
		sb.WriteString("|" + strings.Repeat("---|", len(header)) + "\n")
		for _, row := range rows {
			sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
