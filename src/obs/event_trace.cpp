#include "obs/event_trace.hpp"

#include <charconv>
#include <cstdio>

namespace spms::obs {

namespace {

/// Shortest round-trip double rendering (same contract as the store's
/// canonical JSON; duplicated here because obs must not depend on exp).
void append_double(std::string& s, double v) {
  char buf[32];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  s.append(buf, p);
}

void append_u64(std::string& s, std::uint64_t v) {
  char buf[24];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  s.append(buf, p);
}

}  // namespace

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kPublish: return "publish";
    case TraceKind::kDelivery: return "delivery";
    case TraceKind::kFrameDrop: return "frame-drop";
    case TraceKind::kFaultTransition: return "fault-transition";
    case TraceKind::kBatteryThreshold: return "battery-threshold";
    case TraceKind::kRouteChange: return "route-change";
    case TraceKind::kSpmsAdv: return "spms-adv";
    case TraceKind::kSpmsReqDirect: return "spms-req-direct";
    case TraceKind::kSpmsReqMultihop: return "spms-req-multihop";
    case TraceKind::kSpmsReqCrosszone: return "spms-req-crosszone";
    case TraceKind::kSpmsCourierAdv: return "spms-courier-adv";
    case TraceKind::kSpmsRelayReq: return "spms-relay-req";
    case TraceKind::kSpmsRelayData: return "spms-relay-data";
    case TraceKind::kSpmsData: return "spms-data";
    case TraceKind::kSpinAdv: return "spin-adv";
    case TraceKind::kSpinReq: return "spin-req";
    case TraceKind::kSpinData: return "spin-data";
    case TraceKind::kFloodData: return "flood-data";
    case TraceKind::kGiveUp: return "give-up";
  }
  return "unknown";
}

const char* trace_cause_name(TraceKind k, std::uint8_t cause) {
  switch (k) {
    case TraceKind::kFrameDrop:
      switch (static_cast<DropCause>(cause)) {
        case DropCause::kSenderDown: return "sender-down";
        case DropCause::kOutOfRange: return "out-of-range";
        case DropCause::kReceiverDown: return "receiver-down";
        case DropCause::kLinkFault: return "link-fault";
        case DropCause::kBatteryDead: return "battery-dead";
      }
      return "unknown";
    case TraceKind::kFaultTransition:
      switch (static_cast<FaultPhase>(cause)) {
        case FaultPhase::kDown: return "down";
        case FaultPhase::kRepair: return "repair";
        case FaultPhase::kPermanentDeath: return "permanent-death";
      }
      return "unknown";
    case TraceKind::kBatteryThreshold:
      switch (static_cast<BatteryBucket>(cause)) {
        case BatteryBucket::kAbove50: return "above-50pct";
        case BatteryBucket::kBelow50: return "below-50pct";
        case BatteryBucket::kBelow20: return "below-20pct";
        case BatteryBucket::kBelow10: return "below-10pct";
        case BatteryBucket::kDepleted: return "depleted";
      }
      return "unknown";
    default:
      return nullptr;
  }
}

void append_record_json(const TraceRecord& r, std::string& out) {
  out += "{\"t_ms\":";
  append_double(out, r.at.to_ms());
  out += ",\"kind\":\"";
  out += trace_kind_name(r.kind);
  out += '"';
  if (const char* cause = trace_cause_name(r.kind, r.cause)) {
    out += ",\"cause\":\"";
    out += cause;
    out += '"';
  }
  if (r.node.valid()) {
    out += ",\"node\":";
    append_u64(out, r.node.v);
  }
  if (r.peer.valid()) {
    out += ",\"peer\":";
    append_u64(out, r.peer.v);
  }
  if (r.via.valid()) {
    out += ",\"via\":";
    append_u64(out, r.via.v);
  }
  if (r.parent.valid()) {
    out += ",\"parent\":";
    append_u64(out, r.parent.v);
  }
  if (r.item.origin.valid()) {
    out += ",\"item\":\"n";
    append_u64(out, r.item.origin.v);
    out += '#';
    append_u64(out, r.item.seq);
    out += '"';
  }
  out += ",\"value\":";
  append_double(out, r.value);
  out += '}';
}

std::vector<TraceRecord> EventTrace::ring_snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
  }
  return out;
}

}  // namespace spms::obs
