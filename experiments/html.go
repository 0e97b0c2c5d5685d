package experiments

import (
	"fmt"
	"html/template"
	"io"
)

// htmlReport is the template context for WriteHTML.
type htmlReport struct {
	Generated string
	Reports   []*htmlFigure
}

type htmlFigure struct {
	ID        string
	Title     string
	Metric    string
	Baseline  string
	Treatment string
	PaperNote string
	Peak      string
	Rows      []htmlRow
}

type htmlRow struct {
	Label         string
	Baseline      string
	Treatment     string
	Change        string
	ChangePercent float64
	BarBase       float64 // bar widths in % of the row maximum
	BarTreat      float64
}

var reportTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>SAIs reproduction report</title>
<style>
 body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #222; }
 h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2.2rem; }
 .meta { color: #666; font-size: .85rem; }
 table { border-collapse: collapse; width: 100%; margin-top: .6rem; }
 th, td { text-align: left; padding: .3rem .6rem; border-bottom: 1px solid #e3e3e3; font-size: .9rem; }
 th { color: #555; font-weight: 600; }
 .bar { display: inline-block; height: .7rem; border-radius: 2px; vertical-align: middle; margin-right: .4rem; }
 .base  { background: #9aa7b1; }
 .treat { background: #2f7d4f; }
 .pos { color: #2f7d4f; font-weight: 600; } .neg { color: #a33; font-weight: 600; }
 .note { color: #666; font-size: .85rem; margin: .2rem 0 .6rem; }
</style>
</head>
<body>
<h1>SAIs — Source-aware Interrupt Scheduling: reproduction report</h1>
<p class="meta">Generated {{.Generated}} by cmd/experiments. Baseline vs treatment per figure;
bars are scaled per row pair. See EXPERIMENTS.md for paper-vs-measured commentary.</p>
{{range .Reports}}
<h2>{{.ID}} — {{.Title}}</h2>
<p class="note">metric: {{.Metric}} · baseline: {{.Baseline}} · treatment: {{.Treatment}}<br>
paper: {{.PaperNote}}<br>peak change: <span class="pos">{{.Peak}}</span></p>
<table>
<tr><th>cell</th><th>{{.Baseline}}</th><th>{{.Treatment}}</th><th>change</th></tr>
{{$b := .Baseline}}{{$t := .Treatment}}
{{range .Rows}}
<tr>
 <td>{{.Label}}</td>
 <td><span class="bar base" style="width:{{printf "%.0f" .BarBase}}px"></span>{{.Baseline}}</td>
 <td><span class="bar treat" style="width:{{printf "%.0f" .BarTreat}}px"></span>{{.Treatment}}</td>
 <td class="{{if ge .ChangePercent 0.0}}pos{{else}}neg{{end}}">{{.Change}}</td>
</tr>
{{end}}
</table>
{{end}}
</body>
</html>
`))

// WriteHTML renders figure reports as one self-contained HTML document.
// generated is the caller-supplied report timestamp (cmd/experiments
// passes the wall clock, tests pass a constant): keeping the clock out
// of this package makes the report byte-stable for a given input, the
// same property every other simulator output has.
func WriteHTML(w io.Writer, reports []*Report, generated string) error {
	ctx := htmlReport{Generated: generated}
	const barMax = 180.0
	for _, r := range reports {
		f := r.figure
		if f == nil {
			return fmt.Errorf("experiments: %s is not a figure", r.ID)
		}
		fig := &htmlFigure{
			ID:        r.ID,
			Title:     r.Title,
			Metric:    f.metric.col.head,
			Baseline:  f.baseline.String(),
			Treatment: f.treatment.String(),
			PaperNote: f.note,
		}
		peak, label := r.BestChange()
		fig.Peak = fmt.Sprintf("%+.2f%% at %s", peak*100, label)
		pairs := r.pairs()
		maxVal := 0.0
		for _, p := range pairs {
			maxVal = max(maxVal, p.base.Stats[metricKey].Mean(), p.treat.Stats[metricKey].Mean())
		}
		for _, p := range pairs {
			base, treat := p.base.Stats[metricKey], p.treat.Stats[metricKey]
			row := htmlRow{
				Label:         p.label,
				Baseline:      fmt.Sprintf("%.4g ± %.2g", base.Mean(), base.CI95()),
				Treatment:     fmt.Sprintf("%.4g ± %.2g", treat.Mean(), treat.CI95()),
				Change:        fmt.Sprintf("%+.2f%%", p.change*100),
				ChangePercent: p.change * 100,
			}
			if maxVal > 0 {
				row.BarBase = base.Mean() / maxVal * barMax
				row.BarTreat = treat.Mean() / maxVal * barMax
			}
			fig.Rows = append(fig.Rows, row)
		}
		ctx.Reports = append(ctx.Reports, fig)
	}
	return reportTemplate.Execute(w, &ctx)
}
