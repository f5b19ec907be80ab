#include "src/hypervisor/vscale_channel.h"

#include "src/obs/coverage.h"

namespace vscale {

VscaleChannel::ReadResult VscaleChannel::Read() {
  ReadResult r;
  // The syscall+hypercall round trip happens (and is billed) before any outcome is
  // known — a failing SCHEDOP_getvscaleinfo costs what a succeeding one does.
  r.cost = cost_.channel_syscall + cost_.channel_hypercall;
  if (faults_ != nullptr) {
    r.cost = faults_->PerturbLatency(r.cost);
  }
  total_cost_ += r.cost;

  if (faults_ != nullptr && faults_->Active(FaultKind::kChannelFail)) {
    ++reads_failed_;
    return r;  // ok stays false; caller still charges r.cost
  }

  ChannelPayload p = hv_.ReadChannelPayload(dom_);
  if (faults_ != nullptr && faults_->Active(FaultKind::kChannelStale)) {
    // The mailbox appears wedged: keep returning the payload captured when the
    // window opened. seq stops advancing, which is the daemon's staleness signal.
    if (!stale_valid_) {
      stale_copy_ = p;
      stale_valid_ = true;
    }
    p = stale_copy_;
  } else {
    stale_valid_ = false;
  }
  if (faults_ != nullptr && faults_->Active(FaultKind::kChannelGarbled)) {
    // A torn read: the value changes under the reader without a matching restamp.
    p.nvcpus += 1 + static_cast<int>(faults_->rng().NextBelow(7));
  }
  // Valid-stamp check (seq 0 = mailbox never written: an honest empty payload).
  if (p.seq != 0 && p.stamp != ChannelStamp(p.seq, p.nvcpus)) {
    ++reads_failed_;
    ++torn_rejected_;
    if (CoverageMap* cov = obs_.cover) cov->Record(CoveragePoint::kTornReadRejected);
    return r;
  }

  ++reads_;
  r.ok = true;
  r.extendability_nvcpus = p.nvcpus;
  r.seq = p.seq;
  return r;
}

}  // namespace vscale
