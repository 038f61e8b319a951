"""The single-file HTML/JS convergence dashboard served at ``/``.

The asset is embedded as a module string so the live service stays
stdlib-only and dependency-free: no bundler, no static file tree, one
GET.  The page drives everything through the service's own endpoints —
``/api/runs`` for the catalog, ``/events`` for the SSE stream (the
latest run, or ``?replay=<id or name>&speed=N``) — and renders with
bare canvas/DOM:

* per-class response time vs. goal lines (``decision`` records),
* per-node allocation shares (``allocation_ship`` records),
* degraded/epoch/fault timeline lanes (``degraded_enter``/``exit``,
  ``coord_restart``, ``fault``, ``interval`` records),
* event-pool / scheduler gauges (``metrics`` frames).

To hack on the asset standalone, save it from a running service:
``curl -s http://127.0.0.1:8799/ > dashboard.html`` after
``python -m repro serve``.
"""

from __future__ import annotations

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro convergence dashboard</title>
<style>
  :root { --bg:#11151a; --panel:#1a2027; --ink:#d7dde4; --dim:#78858f;
          --grid:#2a323b; --goal:#e0b341; --ok:#4fba6f; --bad:#e05d5d; }
  body { margin:0; font:13px/1.4 ui-monospace,Menlo,Consolas,monospace;
         background:var(--bg); color:var(--ink); }
  header { display:flex; gap:1em; align-items:center; padding:8px 14px;
           background:var(--panel); border-bottom:1px solid var(--grid); }
  header h1 { font-size:14px; margin:0; font-weight:600; }
  select,button,input { background:var(--bg); color:var(--ink);
         border:1px solid var(--grid); border-radius:3px; padding:3px 6px;
         font:inherit; }
  #status { color:var(--dim); margin-left:auto; }
  main { display:grid; grid-template-columns:2fr 1fr; gap:10px;
         padding:10px 14px; }
  section { background:var(--panel); border:1px solid var(--grid);
            border-radius:4px; padding:8px 10px; }
  section h2 { font-size:12px; margin:0 0 6px; color:var(--dim);
               text-transform:uppercase; letter-spacing:.06em; }
  canvas { width:100%; display:block; }
  #lanes { grid-column:1 / -1; }
  #gauges table { width:100%; border-collapse:collapse; }
  #gauges td { padding:2px 4px; border-bottom:1px solid var(--grid); }
  #gauges td:last-child { text-align:right; color:var(--ok); }
  .legend { color:var(--dim); font-size:11px; margin-top:4px; }
</style>
</head>
<body>
<header>
  <h1>repro &middot; multiclass memory-goal convergence</h1>
  <select id="run"><option value="">latest run</option></select>
  <label>speed <input id="speed" type="number" value="50" min="0"
                      step="10" style="width:5em"></label>
  <button id="go">watch</button>
  <span id="status">idle</span>
</header>
<main>
  <section><h2>response time vs. goal (ms)</h2>
    <canvas id="rt" height="220"></canvas>
    <div class="legend">solid: observed per class &middot;
      dashed: goal &middot; red x: goal violated</div></section>
  <section><h2>allocation share per node (bytes)</h2>
    <canvas id="alloc" height="220"></canvas>
    <div class="legend">latest shipped allocation, stacked by
      class</div></section>
  <section id="lanes"><h2>timeline: intervals &middot; degraded &middot;
      epochs &middot; faults</h2>
    <canvas id="lane" height="120"></canvas></section>
  <section id="gauges"><h2>scheduler / pools</h2>
    <table id="gtab"></table></section>
</main>
<script>
"use strict";
const palette = ["#5aa9e6","#e6a85a","#9a6ae6","#5ae6c8","#e65a9d"];
const state = {
  decisions: {},        // class -> [{t, rt, goal, ok}]
  alloc: {},            // node -> class -> bytes
  lanes: {degraded:{}, epochs:[], faults:[], intervals:[]},
  gauges: {},
  t: 0,
};
const statusEl = document.getElementById("status");
let source = null, dirty = false;

function classColor(id) { return palette[(id - 1 + 5) % 5]; }

function onTrace(rec) {
  state.t = Math.max(state.t, rec.t || 0);
  if (rec.kind === "decision") {
    (state.decisions[rec.class_id] ||= []).push(
      {t: rec.t, rt: rec.observed_rt, goal: rec.goal_ms,
       ok: rec.satisfied});
  } else if (rec.kind === "allocation_ship") {
    (state.alloc[rec.node] ||= {})[rec.class_id] = rec.requested_bytes;
  } else if (rec.kind === "interval") {
    state.lanes.intervals.push(rec.t);
  } else if (rec.kind === "degraded_enter") {
    (state.lanes.degraded[rec.node] ||= []).push({on: rec.t, off: null});
  } else if (rec.kind === "degraded_exit") {
    const spans = state.lanes.degraded[rec.node];
    if (spans && spans.length) spans[spans.length - 1].off = rec.t;
  } else if (rec.kind === "coord_restart") {
    state.lanes.epochs.push({t: rec.t, epoch: rec.epoch});
  } else if (rec.kind === "fault") {
    state.lanes.faults.push({t: rec.t, kind: rec.fault,
                             dur: rec.duration_ms || 0});
  }
  dirty = true;
}

function onMetrics(frame) {
  for (const s of frame.samples) {
    const tag = Object.entries(s.labels).map(([k, v]) => k + "=" + v)
      .sort().join(",");
    state.gauges[s.name + (tag ? "{" + tag + "}" : "")] =
      s.kind === "histogram"
        ? s.count + " n, p95 " + (+s.p95).toFixed(1)
        : s.value;
  }
  dirty = true;
}

function sizeCanvas(c) {
  const w = c.clientWidth || 600;
  if (c.width !== w * devicePixelRatio) {
    c.width = w * devicePixelRatio;
    c.height = c.getAttribute("height") * devicePixelRatio;
  }
  const g = c.getContext("2d");
  g.setTransform(devicePixelRatio, 0, 0, devicePixelRatio, 0, 0);
  return [g, w, +c.getAttribute("height")];
}

function drawRT() {
  const [g, w, h] = sizeCanvas(document.getElementById("rt"));
  g.clearRect(0, 0, w, h);
  const all = Object.values(state.decisions).flat();
  if (!all.length) return;
  const t1 = state.t || 1;
  const y1 = Math.max(...all.map(d => Math.max(d.rt, d.goal))) * 1.15 || 1;
  const X = t => 30 + (w - 40) * t / t1;
  const Y = v => h - 18 - (h - 30) * v / y1;
  g.strokeStyle = getComputedStyle(document.body)
    .getPropertyValue("--grid");
  g.strokeRect(30, 12, w - 40, h - 30);
  g.fillStyle = "#78858f";
  g.fillText((y1).toFixed(0) + "ms", 2, 20);
  g.fillText((t1 / 1000).toFixed(0) + "s", w - 34, h - 4);
  for (const [cid, pts] of Object.entries(state.decisions)) {
    g.strokeStyle = classColor(+cid);
    g.setLineDash([]);
    g.beginPath();
    pts.forEach((d, i) => i ? g.lineTo(X(d.t), Y(d.rt))
                            : g.moveTo(X(d.t), Y(d.rt)));
    g.stroke();
    g.setLineDash([5, 4]);
    g.beginPath();
    pts.forEach((d, i) => i ? g.lineTo(X(d.t), Y(d.goal))
                            : g.moveTo(X(d.t), Y(d.goal)));
    g.stroke();
    g.setLineDash([]);
    g.fillStyle = "#e05d5d";
    for (const d of pts) if (!d.ok) {
      g.fillText("x", X(d.t) - 3, Y(d.rt) - 4);
    }
  }
}

function drawAlloc() {
  const [g, w, h] = sizeCanvas(document.getElementById("alloc"));
  g.clearRect(0, 0, w, h);
  const nodes = Object.keys(state.alloc).map(Number).sort((a, b) => a - b);
  if (!nodes.length) return;
  const total = Math.max(...nodes.map(n =>
    Object.values(state.alloc[n]).reduce((a, b) => a + b, 0))) || 1;
  const bw = Math.min(60, (w - 40) / nodes.length - 8);
  nodes.forEach((n, i) => {
    let y = h - 18;
    const x = 24 + i * ((w - 40) / nodes.length);
    for (const cid of Object.keys(state.alloc[n]).sort()) {
      const frac = state.alloc[n][cid] / total;
      const bh = frac * (h - 40);
      g.fillStyle = classColor(+cid);
      g.fillRect(x, y - bh, bw, bh);
      y -= bh;
    }
    g.fillStyle = "#78858f";
    g.fillText("n" + n, x + bw / 2 - 7, h - 4);
  });
}

function drawLanes() {
  const [g, w, h] = sizeCanvas(document.getElementById("lane"));
  g.clearRect(0, 0, w, h);
  const t1 = state.t || 1;
  const X = t => 60 + (w - 70) * t / t1;
  const lane = (i, name) => {
    const y = 14 + i * 26;
    g.fillStyle = "#78858f";
    g.fillText(name, 2, y + 10);
    return y;
  };
  let y = lane(0, "intervals");
  g.fillStyle = "#3b4652";
  for (const t of state.lanes.intervals) g.fillRect(X(t), y, 1.5, 12);
  y = lane(1, "degraded");
  g.fillStyle = "#e0b341";
  for (const spans of Object.values(state.lanes.degraded))
    for (const s of spans)
      g.fillRect(X(s.on), y, Math.max(2, X(s.off ?? state.t) - X(s.on)), 12);
  y = lane(2, "epochs");
  g.fillStyle = "#9a6ae6";
  for (const e of state.lanes.epochs) {
    g.fillRect(X(e.t), y, 2, 12);
    g.fillText("e" + e.epoch, X(e.t) + 3, y + 10);
  }
  y = lane(3, "faults");
  g.fillStyle = "#e05d5d";
  for (const f of state.lanes.faults) {
    g.fillRect(X(f.t), y, Math.max(2, (w - 70) * f.dur / t1), 12);
  }
}

function drawGauges() {
  const rows = Object.entries(state.gauges)
    .filter(([k]) => /event_pool|resource_utilization|intervals|degraded_nodes|reports_dropped/.test(k))
    .sort();
  document.getElementById("gtab").innerHTML = rows.map(([k, v]) =>
    "<tr><td>" + k + "</td><td>" +
    (typeof v === "number" ? (+v).toPrecision(4) : v) +
    "</td></tr>").join("");
}

function redraw() {
  if (!dirty) return;
  dirty = false;
  drawRT(); drawAlloc(); drawLanes(); drawGauges();
}
setInterval(redraw, 250);

function reset() {
  Object.assign(state, {decisions: {}, alloc: {},
    lanes: {degraded: {}, epochs: [], faults: [], intervals: []},
    gauges: {}, t: 0});
  dirty = true;
}

function watch() {
  if (source) source.close();
  reset();
  const run = document.getElementById("run").value;
  const speed = document.getElementById("speed").value || 50;
  const url = run ? "/events?replay=" + encodeURIComponent(run) +
                    "&speed=" + speed
                  : "/events";
  source = new EventSource(url);
  statusEl.textContent = run ? "replaying " + run : "waiting for run...";
  source.addEventListener("trace", e =>
    onTrace(JSON.parse(e.data).record));
  source.addEventListener("metrics", e => onMetrics(JSON.parse(e.data)));
  source.addEventListener("run_start", e => {
    const doc = JSON.parse(e.data), meta = doc.meta || {};
    // A run still being written has no exported meta yet.
    statusEl.textContent = meta.seed === undefined
      ? "following run " + doc.run
      : "seed " + meta.seed + ", " + meta.num_nodes + " nodes";
  });
  source.addEventListener("end", () => {
    statusEl.textContent = "run complete @ " +
      (state.t / 1000).toFixed(1) + "s sim";
    source.close();
  });
  source.onerror = () => { statusEl.textContent = "stream closed"; };
}

fetch("/api/runs").then(r => r.json()).then(doc => {
  const sel = document.getElementById("run");
  for (const run of doc.runs || []) {
    const opt = document.createElement("option");
    opt.value = run.id;
    opt.textContent = run.name + " (" + run.records + " records)";
    sel.appendChild(opt);
  }
  if (doc.runs && doc.runs.length && !doc.live) {
    sel.value = doc.runs[0].id;
  }
}).catch(() => {});
document.getElementById("go").addEventListener("click", watch);
</script>
</body>
</html>
"""
