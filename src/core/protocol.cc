#include "src/core/protocol.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "src/common/text_parse.h"

namespace defl {
namespace {

constexpr const char* kProtocolTag = "defl/1";

const char* KindToken(DeflationMessageKind kind) {
  switch (kind) {
    case DeflationMessageKind::kDeflateRequest:
      return "deflate-req";
    case DeflationMessageKind::kDeflateResponse:
      return "deflate-resp";
    case DeflationMessageKind::kReinflateNotice:
      return "reinflate";
    case DeflationMessageKind::kFootprintQuery:
      return "footprint-query";
    case DeflationMessageKind::kFootprintReport:
      return "footprint-report";
  }
  return "?";
}

Result<DeflationMessageKind> KindFromToken(const std::string& token) {
  for (const DeflationMessageKind kind :
       {DeflationMessageKind::kDeflateRequest, DeflationMessageKind::kDeflateResponse,
        DeflationMessageKind::kReinflateNotice, DeflationMessageKind::kFootprintQuery,
        DeflationMessageKind::kFootprintReport}) {
    if (token == KindToken(kind)) {
      return kind;
    }
  }
  return Error{"unknown message kind: " + token};
}

// Parses "key=value" and checks the key.
Result<double> ParseField(const std::string& token, const char* key) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || token.substr(0, eq) != key) {
    return Error{"expected field '" + std::string(key) + "', got '" + token + "'"};
  }
  double parsed = 0.0;
  if (!ParseDouble(std::string_view(token).substr(eq + 1), &parsed)) {
    return Error{"bad numeric value in '" + token + "'"};
  }
  return parsed;
}

}  // namespace

const char* DeflationMessageKindName(DeflationMessageKind kind) {
  return KindToken(kind);
}

std::string EncodeMessage(const DeflationMessage& message) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s %s vm=%lld seq=%lld cpu=%.6g mem=%.6g disk=%.6g net=%.6g",
                kProtocolTag, KindToken(message.kind),
                static_cast<long long>(message.vm_id),
                static_cast<long long>(message.sequence), message.amount.cpu(),
                message.amount.memory_mb(), message.amount.disk_bw(),
                message.amount.net_bw());
  return buffer;
}

Result<DeflationMessage> DecodeMessage(const std::string& line) {
  // EncodeMessage emits at most 256 bytes; anything much longer is not ours
  // and is rejected before tokenization touches it.
  if (line.size() > 512) {
    return Error{"oversized message line (" + std::to_string(line.size()) + " bytes)"};
  }
  std::istringstream in(line);
  std::string tag;
  std::string kind_token;
  in >> tag >> kind_token;
  if (tag != kProtocolTag) {
    return Error{"bad protocol tag: '" + tag + "'"};
  }
  const Result<DeflationMessageKind> kind = KindFromToken(kind_token);
  if (!kind.ok()) {
    return Error{kind.error()};
  }

  DeflationMessage message;
  message.kind = kind.value();

  std::string token;
  const char* keys[] = {"vm", "seq", "cpu", "mem", "disk", "net"};
  double values[6] = {};
  for (int i = 0; i < 6; ++i) {
    if (!(in >> token)) {
      return Error{std::string("missing field '") + keys[i] + "'"};
    }
    const Result<double> parsed = ParseField(token, keys[i]);
    if (!parsed.ok()) {
      return Error{parsed.error()};
    }
    values[i] = parsed.value();
  }
  if (in >> token) {
    return Error{"trailing garbage: '" + token + "'"};
  }
  // vm and seq are identifiers: fractional or magnitude-overflowing values
  // mean the field was corrupted, not that a huge id exists.
  for (int i = 0; i < 2; ++i) {
    if (values[i] != std::floor(values[i]) || std::abs(values[i]) > 9.0e15) {
      return Error{std::string("non-integral id field '") + keys[i] + "'"};
    }
  }
  message.vm_id = static_cast<VmId>(values[0]);
  message.sequence = static_cast<int64_t>(values[1]);
  message.amount = ResourceVector(values[2], values[3], values[4], values[5]);
  return message;
}

AgentEndpoint::AgentEndpoint(VmId vm_id, DeflationAgent* agent)
    : vm_id_(vm_id), agent_(agent) {}

std::string AgentEndpoint::Handle(const std::string& request_line) {
  const Result<DeflationMessage> parsed = DecodeMessage(request_line);
  DeflationMessage response;
  response.vm_id = vm_id_;
  if (!parsed.ok()) {
    response.kind = DeflationMessageKind::kDeflateResponse;
    response.sequence = -1;
    return EncodeMessage(response);
  }
  const DeflationMessage& request = parsed.value();
  response.sequence = request.sequence;
  switch (request.kind) {
    case DeflationMessageKind::kDeflateRequest:
      response.kind = DeflationMessageKind::kDeflateResponse;
      response.amount = agent_->SelfDeflate(request.amount);
      break;
    case DeflationMessageKind::kReinflateNotice:
      agent_->OnReinflate(request.amount);
      response.kind = DeflationMessageKind::kFootprintReport;
      response.amount = ResourceVector(0.0, agent_->MemoryFootprintMb());
      break;
    case DeflationMessageKind::kFootprintQuery:
      response.kind = DeflationMessageKind::kFootprintReport;
      response.amount = ResourceVector(0.0, agent_->MemoryFootprintMb());
      break;
    case DeflationMessageKind::kDeflateResponse:
    case DeflationMessageKind::kFootprintReport:
      // Not valid as requests; reply with an empty response.
      response.kind = DeflationMessageKind::kDeflateResponse;
      response.sequence = -1;
      break;
  }
  return EncodeMessage(response);
}

RemoteAgentProxy::RemoteAgentProxy(VmId vm_id, WireTransport transport)
    : vm_id_(vm_id), transport_(std::move(transport)) {}

ResourceVector RemoteAgentProxy::SelfDeflate(const ResourceVector& target) {
  DeflationMessage request;
  request.kind = DeflationMessageKind::kDeflateRequest;
  request.vm_id = vm_id_;
  request.sequence = ++sequence_;
  request.amount = target;
  const Result<DeflationMessage> reply = DecodeMessage(transport_(EncodeMessage(request)));
  if (!reply.ok() || reply.value().sequence != request.sequence ||
      reply.value().kind != DeflationMessageKind::kDeflateResponse ||
      reply.value().vm_id != vm_id_) {
    // A silent, confused, or cross-wired agent frees nothing; the cascade
    // falls through.
    return ResourceVector::Zero();
  }
  return reply.value().amount.ClampNonNegative();
}

void RemoteAgentProxy::OnReinflate(const ResourceVector& added) {
  DeflationMessage request;
  request.kind = DeflationMessageKind::kReinflateNotice;
  request.vm_id = vm_id_;
  request.sequence = ++sequence_;
  request.amount = added;
  transport_(EncodeMessage(request));
}

double RemoteAgentProxy::MemoryFootprintMb() const {
  DeflationMessage request;
  request.kind = DeflationMessageKind::kFootprintQuery;
  request.vm_id = vm_id_;
  request.sequence = ++sequence_;
  const Result<DeflationMessage> reply = DecodeMessage(transport_(EncodeMessage(request)));
  if (!reply.ok() || reply.value().kind != DeflationMessageKind::kFootprintReport) {
    return 0.0;
  }
  return reply.value().amount.memory_mb();
}

}  // namespace defl
