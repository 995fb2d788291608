package experiments

import (
	"strconv"
	"strings"

	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
)

// Fig12a compares Spark-SD and TeraHeap on the NVM server (Figure 12a):
// the off-heap cache / H2 live on Optane in App Direct mode.
func (e *Env) Fig12a() string {
	workloads := SparkWorkloads()
	var specs []Spec
	for _, w := range workloads {
		dram := sparkSpecs[w].thDramGB[len(sparkSpecs[w].thDramGB)-1]
		specs = append(specs,
			SparkSpec(SparkRun{Workload: w, Runtime: rt.KindPS, DramGB: dram, Device: storage.NVM}),
			SparkSpec(SparkRun{Workload: w, Runtime: rt.KindTH, DramGB: dram, Device: storage.NVM}))
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	for i, w := range workloads {
		sd, th := runs[2*i], runs[2*i+1]
		rows := []metrics.Row{
			sd.RowNamed(w + "/SD(nvm)"),
			th.RowNamed(w + "/TH(nvm)"),
		}
		sb.WriteString(metrics.FormatBreakdown("Fig 12a "+w+" (Spark-SD vs TH, NVM)", rows, true))
	}
	return sb.String()
}

// Fig12b compares Spark-MO (heap over NVM memory mode) and TeraHeap
// (Figure 12b).
func (e *Env) Fig12b() string {
	workloads := SparkWorkloads()
	var specs []Spec
	for _, w := range workloads {
		dram := sparkSpecs[w].thDramGB[len(sparkSpecs[w].thDramGB)-1]
		specs = append(specs,
			SparkSpec(SparkRun{Workload: w, Runtime: rt.KindMO, DramGB: dram, Device: storage.NVM}),
			SparkSpec(SparkRun{Workload: w, Runtime: rt.KindTH, DramGB: dram, Device: storage.NVM}))
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	for i, w := range workloads {
		mo, th := runs[2*i], runs[2*i+1]
		rows := []metrics.Row{
			noteRow(mo.RowNamed(w+"/MO"), devNote(mo.DevStats)),
			noteRow(th.RowNamed(w+"/TH"), devNote(th.DevStats)),
		}
		sb.WriteString(metrics.FormatBreakdown("Fig 12b "+w+" (Spark-MO vs TH, NVM)", rows, true))
	}
	return sb.String()
}

// Fig12c compares Panthera and TeraHeap (Figure 12c): both use 16 GB of
// DRAM and NVM for the rest (64 GB heap for Panthera, H2 on NVM for TH).
func (e *Env) Fig12c() string {
	// The paper's Fig 12c workload list (KM replaces TR and RL). Panthera
	// holds everything on its 64 GB hybrid heap, so datasets are sized to
	// fit it (the Panthera paper's own evaluation scale); TeraHeap runs
	// the same datasets with the same DRAM.
	list := []string{"PR", "CC", "SSSP", "SVD", "LR", "LgR", "KM", "SVM", "BC"}
	var specs []Spec
	for _, w := range list {
		scale := 30.0 / sparkSpecs[w].datasetGB
		if scale > 1 {
			scale = 1
		}
		specs = append(specs,
			SparkSpec(SparkRun{Workload: w, Runtime: rt.KindPanthera, DramGB: 16, Device: storage.NVM, DatasetScale: scale}),
			SparkSpec(SparkRun{Workload: w, Runtime: rt.KindTH, DramGB: 32, Device: storage.NVM, DatasetScale: scale}))
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	for i, w := range list {
		p, th := runs[2*i], runs[2*i+1]
		rows := []metrics.Row{
			noteRow(p.RowNamed(w+"/Panthera"), devNote(p.DevStats)),
			noteRow(th.RowNamed(w+"/TH"), devNote(th.DevStats)),
		}
		sb.WriteString(metrics.FormatBreakdown("Fig 12c "+w+" (Panthera vs TH, NVM)", rows, true))
	}
	return sb.String()
}

// noteRow attaches the device-traffic note to a healthy row; faulted
// rows keep the failure note RowNamed already set.
func noteRow(r metrics.Row, note string) metrics.Row {
	if r.Note == "" {
		r.Note = note
	}
	return r
}

// devNote formats a run's device traffic as "devR=<n><unit> devW=<n><unit>",
// each byte count truncated to whole MB, KB or B.
func devNote(s storage.Stats) string {
	size := func(b int64) string {
		switch {
		case b >= storage.MB:
			return strconv.FormatInt(b/storage.MB, 10) + "MB"
		case b >= storage.KB:
			return strconv.FormatInt(b/storage.KB, 10) + "KB"
		}
		return strconv.FormatInt(b, 10) + "B"
	}
	return "devR=" + size(s.BytesRead) + " devW=" + size(s.BytesWritten)
}
