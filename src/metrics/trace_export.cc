#include "src/metrics/trace_export.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>
#include <vector>

#include "src/base/byte_writer.h"

namespace vscale {

namespace {

// Appends `s` as the body of a JSON string literal.
void PutJsonEscaped(ByteWriter& w, std::string_view s) {
  size_t plain = 0;  // start of the pending run that needs no escaping
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    std::string_view esc;
    switch (c) {
      case '"':
        esc = "\\\"";
        break;
      case '\\':
        esc = "\\\\";
        break;
      case '\n':
        esc = "\\n";
        break;
      case '\t':
        esc = "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    w.Put(s.substr(plain, i - plain));
    plain = i + 1;
    if (!esc.empty()) {
      w.Put(esc);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      w.Put(buf);
    }
  }
  w.Put(s.substr(plain));
}

struct Track {
  int pid = 0;
  int tid = 0;
};

// Where an event is drawn. Hypervisor "run" slices get TWO homes (machine pCPU row
// and the domain's vCPU row); everything else gets one.
Track HomeTrack(const TraceEvent& e) {
  if (e.domain >= 0) {
    return {kTraceDomainPidBase + e.domain, e.vcpu >= 0 ? e.vcpu : kTraceDomainTid};
  }
  return {kTraceMachinePid, e.pcpu >= 0 ? e.pcpu : kTraceEngineTid};
}

// A domain's B/E that names its pCPU is mirrored onto that machine row.
bool HasMirror(const TraceEvent& e) {
  return (e.phase == TracePhase::kBegin || e.phase == TracePhase::kEnd) &&
         e.domain >= 0 && e.pcpu >= 0;
}

Track MirrorTrack(const TraceEvent& e) { return {kTraceMachinePid, e.pcpu}; }

// Dense ids for the (pid, tid) tracks an export touches: one row per pid
// (machine first, then domains in order), indexed by tid. Ids are assigned in
// (pid, tid) order, so walking ids walks the tracks sorted.
class TrackIndex {
 public:
  void Add(Track tr) {
    const size_t row = Row(tr.pid);
    if (row >= rows_.size()) rows_.resize(row + 1);
    std::vector<int>& ids = rows_[row];
    const auto tid = static_cast<size_t>(tr.tid);
    if (tid >= ids.size()) ids.resize(tid + 1, -1);
    ids[tid] = 0;
  }

  // Called once after every Add(); assigns the ids.
  void Seal() {
    for (size_t row = 0; row < rows_.size(); ++row) {
      const int pid = row == 0 ? kTraceMachinePid
                               : kTraceDomainPidBase + static_cast<int>(row) - 1;
      std::vector<int>& ids = rows_[row];
      for (size_t tid = 0; tid < ids.size(); ++tid) {
        if (ids[tid] < 0) continue;
        ids[tid] = static_cast<int>(tracks_.size());
        tracks_.push_back({pid, static_cast<int>(tid)});
      }
    }
  }

  int Id(Track tr) const {
    return rows_[Row(tr.pid)][static_cast<size_t>(tr.tid)];
  }
  const std::vector<Track>& tracks() const { return tracks_; }

 private:
  static size_t Row(int pid) {
    return pid == kTraceMachinePid
               ? 0
               : static_cast<size_t>(pid - kTraceDomainPidBase) + 1;
  }

  std::vector<std::vector<int>> rows_;  // row -> tid -> id, -1 if unused
  std::vector<Track> tracks_;           // id -> track
};

// A B still waiting for its E. Domain-row slices carry the B's name; pCPU
// mirrors carry who ran there and print as "d<dom>/v<vcpu>".
struct OpenSlice {
  const char* name = nullptr;  // null on a mirror
  int dom = 0;
  int vcpu = 0;
  TraceCategory category = TraceCategory::kSim;
};

// The comma-separated record stream inside "traceEvents".
class RecordWriter {
 public:
  explicit RecordWriter(ByteWriter& w) : w_(w) {}

  void Meta(const char* what, int pid, int tid, std::string_view name) {
    Open();
    w_.Put(what);
    w_.Put("\",\"ph\":\"M\",\"pid\":");
    w_.Int(pid);
    if (tid >= 0) {
      w_.Put(",\"tid\":");
      w_.Int(tid);
    }
    w_.Put(",\"args\":{\"name\":\"");
    PutJsonEscaped(w_, name);
    w_.Put("\"}}");
  }

  void Event(const OpenSlice& s, char ph, Track tr, TimeNs ts, TraceCategory cat,
             const char* arg_name, int64_t arg) {
    Open();
    if (s.name != nullptr) {
      PutJsonEscaped(w_, s.name);
    } else {
      w_.Put('d');
      w_.Int(s.dom);
      w_.Put("/v");
      w_.Int(s.vcpu);
    }
    w_.Put("\",\"ph\":\"");
    w_.Put(ph);
    w_.Put("\",\"pid\":");
    w_.Int(tr.pid);
    w_.Put(",\"tid\":");
    w_.Int(tr.tid);
    w_.Put(",\"ts\":");
    w_.MicrosFromNanos(ts);
    w_.Put(",\"cat\":\"");
    w_.Put(ToString(cat));
    w_.Put('"');
    if (ph == 'i') {
      w_.Put(",\"s\":\"t\"");
    }
    if (arg_name != nullptr) {
      w_.Put(",\"args\":{\"");
      PutJsonEscaped(w_, arg_name);
      w_.Put("\":");
      w_.Int(arg);
      w_.Put('}');
    }
    w_.Put('}');
  }

 private:
  void Open() {
    w_.Put(first_ ? "\n{\"name\":\"" : ",\n{\"name\":\"");
    first_ = false;
  }

  ByteWriter& w_;
  bool first_ = true;
};

}  // namespace

void WriteChromeTrace(const Tracer& tracer, std::ostream& os) {
  // Pass 1: discover every track so metadata can name them up front.
  TrackIndex index;
  TimeNs final_ts = 0;
  tracer.ForEachRetained([&](const TraceEvent& e) {
    index.Add(HomeTrack(e));
    if (HasMirror(e)) index.Add(MirrorTrack(e));
    final_ts = e.ts;  // buffer order is chronological
  });
  index.Seal();
  const std::vector<Track>& tracks = index.tracks();

  ByteWriter w(os);
  w.Put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  RecordWriter out(w);

  // Metadata: process and thread names.
  std::map<int, std::string> process_names;
  process_names[kTraceMachinePid] = "machine";
  for (const auto& [dom, name] : tracer.domain_names()) {
    process_names[kTraceDomainPidBase + dom] = "dom" + std::to_string(dom) + " " + name;
  }
  for (const Track& tr : tracks) {
    // Domain without a registered name (tracing enabled mid-run).
    process_names.try_emplace(tr.pid,
                              "dom" + std::to_string(tr.pid - kTraceDomainPidBase));
  }
  for (const auto& [pid, name] : process_names) {
    out.Meta("process_name", pid, -1, name);
  }
  for (const Track& tr : tracks) {
    std::string tname;
    if (tr.pid == kTraceMachinePid) {
      tname = tr.tid == kTraceEngineTid ? "engine" : "pCPU" + std::to_string(tr.tid);
    } else {
      tname = tr.tid == kTraceDomainTid ? "domain" : "vCPU" + std::to_string(tr.tid);
    }
    out.Meta("thread_name", tr.pid, tr.tid, tname);
  }

  // Pass 2: emit events in buffer (chronological) order, balancing B/E per track.
  // Slices cut in half by ring wraparound lose their B; drop the orphan E. Slices
  // still open at the end of the buffer are closed at the final timestamp.
  std::vector<std::vector<OpenSlice>> open(tracks.size());
  auto begin_slice = [&](int id, const OpenSlice& s, const TraceEvent& e) {
    out.Event(s, 'B', tracks[id], e.ts, e.category, e.arg_name, e.arg);
    open[id].push_back(s);
  };
  auto end_slice = [&](int id, const TraceEvent& e) {
    std::vector<OpenSlice>& stack = open[id];
    if (stack.empty()) {
      return;  // begin lost to wraparound
    }
    out.Event(stack.back(), 'E', tracks[id], e.ts, e.category, e.arg_name, e.arg);
    stack.pop_back();
  };

  tracer.ForEachRetained([&](const TraceEvent& e) {
    const int home = index.Id(HomeTrack(e));
    const OpenSlice named{e.name, 0, 0, e.category};
    switch (e.phase) {
      case TracePhase::kInstant:
        out.Event(named, 'i', tracks[home], e.ts, e.category, e.arg_name, e.arg);
        break;
      case TracePhase::kCounter:
        out.Event(named, 'C', tracks[home], e.ts, e.category, e.arg_name, e.arg);
        break;
      case TracePhase::kBegin:
        begin_slice(home, named, e);
        if (HasMirror(e)) {
          // Mirror onto the machine's pCPU row, labeled with who is running.
          begin_slice(index.Id(MirrorTrack(e)),
                      OpenSlice{nullptr, e.domain, e.vcpu, e.category}, e);
        }
        break;
      case TracePhase::kEnd:
        end_slice(home, e);
        if (HasMirror(e)) {
          end_slice(index.Id(MirrorTrack(e)), e);
        }
        break;
    }
  });

  for (size_t id = 0; id < tracks.size(); ++id) {
    std::vector<OpenSlice>& stack = open[id];
    while (!stack.empty()) {
      const OpenSlice& s = stack.back();
      out.Event(s, 'E', tracks[id], final_ts, s.category, nullptr, 0);
      stack.pop_back();
    }
  }

  w.Put("\n]}\n");
}

bool WriteChromeTraceFile(const Tracer& tracer, const std::string& path,
                          std::string* error) {
  // Ring overflow silently truncates the trace's oldest window; surface it once
  // per process so nobody reads a partial timeline as a complete one. The same
  // figure is queryable as the trace.events_dropped gauge.
  static bool warned_dropped = false;
  if (!warned_dropped && tracer.dropped() > 0) {
    warned_dropped = true;
    std::fprintf(stderr,
                 "trace: WARNING: ring dropped %llu events; %s starts "
                 "mid-timeline (raise Tracer::SetCapacity to keep the full "
                 "run)\n",
                 static_cast<unsigned long long>(tracer.dropped()),
                 path.c_str());
  }
  std::ofstream f(path);
  if (!f) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  WriteChromeTrace(tracer, f);
  f.flush();
  if (!f) {
    if (error != nullptr) {
      *error = "write to " + path + " failed";
    }
    return false;
  }
  return true;
}

}  // namespace vscale
