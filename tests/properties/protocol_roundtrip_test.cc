// Adversarial property test for the wire protocol (DESIGN.md §8): encode/
// decode round-trips for arbitrary well-formed messages, and DecodeMessage
// must reject -- never crash on, never silently accept -- truncated lines,
// corrupted bytes, duplicated fields, non-finite numerics, and oversized
// input. Seeded from DEFL_FAULT_SEED so CI can run a seed matrix.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/protocol.h"

namespace defl {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("DEFL_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

DeflationMessage RandomMessage(Rng& rng) {
  DeflationMessage message;
  constexpr DeflationMessageKind kKinds[] = {
      DeflationMessageKind::kDeflateRequest, DeflationMessageKind::kDeflateResponse,
      DeflationMessageKind::kReinflateNotice, DeflationMessageKind::kFootprintQuery,
      DeflationMessageKind::kFootprintReport};
  message.kind = kKinds[rng.UniformInt(0, 4)];
  message.vm_id = rng.UniformInt(0, 1 << 20);
  message.sequence = rng.UniformInt(0, 1 << 30);
  // Amounts stay within 6 significant digits so the %.6g wire encoding is
  // exact and the round-trip can be compared with EXPECT_DOUBLE_EQ.
  message.amount = ResourceVector(rng.UniformInt(0, 128), rng.UniformInt(0, 900000),
                                  rng.UniformInt(0, 4000), rng.UniformInt(0, 40000));
  return message;
}

TEST(ProtocolRoundTripTest, EncodeDecodeRoundTrips) {
  Rng rng(TestSeed());
  for (int i = 0; i < 500; ++i) {
    const DeflationMessage message = RandomMessage(rng);
    const Result<DeflationMessage> decoded = DecodeMessage(EncodeMessage(message));
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded.value().kind, message.kind);
    EXPECT_EQ(decoded.value().vm_id, message.vm_id);
    EXPECT_EQ(decoded.value().sequence, message.sequence);
    for (const ResourceKind kind : kAllResources) {
      // %.6g encoding: integral values up to 2^20 survive exactly.
      EXPECT_DOUBLE_EQ(decoded.value().amount[kind], message.amount[kind]);
    }
  }
}

// A decode result is acceptable if it errored, or if it parsed into sane
// values. What is never acceptable: crashes, non-finite amounts, or ids
// that silently wrapped.
void ExpectSaneDecode(const std::string& line) {
  const Result<DeflationMessage> decoded = DecodeMessage(line);
  if (!decoded.ok()) {
    return;
  }
  const DeflationMessage& message = decoded.value();
  EXPECT_EQ(message.vm_id, message.vm_id);  // not NaN-poisoned
  for (const ResourceKind kind : kAllResources) {
    const double v = message.amount[kind];
    EXPECT_TRUE(v == v && v < 1e300 && v > -1e300) << "non-finite in: " << line;
  }
}

TEST(ProtocolAdversarialTest, TruncatedLinesNeverCrash) {
  Rng rng(TestSeed());
  for (int i = 0; i < 100; ++i) {
    const std::string line = EncodeMessage(RandomMessage(rng));
    for (size_t cut = 0; cut <= line.size(); cut += 3) {
      ExpectSaneDecode(line.substr(0, cut));
    }
    // Truncation mid-line must be an error, not a partial accept.
    EXPECT_FALSE(DecodeMessage(line.substr(0, line.size() / 2)).ok());
  }
}

TEST(ProtocolAdversarialTest, CorruptedBytesNeverCrash) {
  Rng rng(TestSeed() + 1);
  for (int i = 0; i < 300; ++i) {
    std::string line = EncodeMessage(RandomMessage(rng));
    const int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(line.size()) - 1));
      line[pos] = static_cast<char>(rng.UniformInt(1, 255));
    }
    ExpectSaneDecode(line);
  }
}

TEST(ProtocolAdversarialTest, RejectsDuplicatedAndReorderedFields) {
  // Strict field order means a duplicated key displaces an expected one.
  EXPECT_FALSE(DecodeMessage("defl/1 deflate-req vm=1 vm=2 cpu=0 mem=0 disk=0 net=0").ok());
  EXPECT_FALSE(
      DecodeMessage("defl/1 deflate-req seq=2 vm=1 cpu=0 mem=0 disk=0 net=0").ok());
  EXPECT_FALSE(DecodeMessage(
                   "defl/1 deflate-req vm=1 seq=2 cpu=1 mem=2 disk=3 net=4 extra=5")
                   .ok());
}

TEST(ProtocolAdversarialTest, RejectsNonFiniteAndNonIntegralValues) {
  EXPECT_FALSE(
      DecodeMessage("defl/1 deflate-req vm=1 seq=2 cpu=inf mem=0 disk=0 net=0").ok());
  EXPECT_FALSE(
      DecodeMessage("defl/1 deflate-req vm=1 seq=2 cpu=nan mem=0 disk=0 net=0").ok());
  EXPECT_FALSE(
      DecodeMessage("defl/1 deflate-req vm=1 seq=2 cpu=0 mem=-inf disk=0 net=0").ok());
  EXPECT_FALSE(
      DecodeMessage("defl/1 deflate-req vm=1 seq=2 cpu=0 mem=0 disk=1e999 net=0").ok());
  EXPECT_FALSE(
      DecodeMessage("defl/1 deflate-req vm=inf seq=2 cpu=0 mem=0 disk=0 net=0").ok());
  // Ids must be integral and within int64-exact double range.
  EXPECT_FALSE(
      DecodeMessage("defl/1 deflate-req vm=1.5 seq=2 cpu=0 mem=0 disk=0 net=0").ok());
  EXPECT_FALSE(
      DecodeMessage("defl/1 deflate-req vm=1 seq=1e30 cpu=0 mem=0 disk=0 net=0").ok());
  // A plain finite fractional amount is fine.
  EXPECT_TRUE(
      DecodeMessage("defl/1 deflate-req vm=1 seq=2 cpu=0.5 mem=0 disk=0 net=0").ok());
}

TEST(ProtocolAdversarialTest, RejectsOversizedLines) {
  std::string line = "defl/1 deflate-req vm=1 seq=2 cpu=0 mem=0 disk=0 net=";
  line.append(2000, '9');
  EXPECT_FALSE(DecodeMessage(line).ok());
  ExpectSaneDecode(line);
  ExpectSaneDecode(std::string(100000, 'x'));
}

TEST(ProtocolAdversarialTest, ProxyTreatsGarbageAsSilence) {
  // Whatever the wire does, the proxy must fall through with zero rather
  // than surface a bogus freed amount.
  Rng rng(TestSeed() + 2);
  for (int i = 0; i < 100; ++i) {
    std::string garbage;
    const int len = static_cast<int>(rng.UniformInt(0, 120));
    for (int c = 0; c < len; ++c) {
      garbage.push_back(static_cast<char>(rng.UniformInt(1, 255)));
    }
    RemoteAgentProxy proxy(1, [&garbage](const std::string&) { return garbage; });
    EXPECT_TRUE(proxy.SelfDeflate(ResourceVector(1.0, 100.0)).IsZero());
  }
}

TEST(ProtocolAdversarialTest, ProxyRejectsCrossWiredReplies) {
  // A syntactically valid reply for the wrong VM or of the wrong kind is
  // a confused agent, not a result.
  RemoteAgentProxy wrong_vm(1, [](const std::string&) {
    return std::string("defl/1 deflate-resp vm=2 seq=1 cpu=4 mem=1000 disk=0 net=0");
  });
  EXPECT_TRUE(wrong_vm.SelfDeflate(ResourceVector(1.0, 100.0)).IsZero());
  RemoteAgentProxy wrong_kind(1, [](const std::string&) {
    return std::string(
        "defl/1 footprint-report vm=1 seq=1 cpu=4 mem=1000 disk=0 net=0");
  });
  EXPECT_TRUE(wrong_kind.SelfDeflate(ResourceVector(1.0, 100.0)).IsZero());
}

}  // namespace
}  // namespace defl
