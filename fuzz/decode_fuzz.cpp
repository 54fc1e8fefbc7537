// Fuzz target for the wire codec's totality guarantee (wire/codec.hpp):
// decode_message must map ANY byte string to either a message that
// re-encodes byte-identically or a structured DecodeError — never UB,
// never an assert, never an unbounded allocation.
//
// Every input also goes to the deployment's control parser
// (proc/ctrl.hpp), which claims the same totality: parse_ctrl must
// return a control message or a structured error, and a frame it accepts
// must re-encode through encode_ctrl to exactly its header and declared
// payload.
//
// A decoded CheckTrie or CheckAndPublish (bare or inside TopicEnvelopes)
// also feeds every label it carries to locate() and collect_prefix() on a
// fixed publication store, whose answers must match a linear scan of the
// store's keys: wire labels of any length reach the trie's skip descent.
//
// Every input is also a byte stream for the deployment's frame assembler
// (net/frame.hpp): fed to a fresh assembler with a small payload cap, in
// segments of seeded random sizes, it must hand back views equal to the
// frames a reference walk over the whole input cuts out, and fail exactly
// where that walk meets a length beyond the cap. Each frame it returns
// goes to parse_ctrl while the view is valid. The standalone binary also
// builds multi-frame streams from the corpus and its mutations, some long
// enough that the assembler compacts its buffer between frames.
//
// Two build modes share one `one_input` body:
//
//  - With -DSSPS_FUZZER and -fsanitize=fuzzer this is a libFuzzer target
//    (LLVMFuzzerTestOneInput).
//  - Without it, the file builds as the `ssps_decode_fuzz` binary: it
//    replays a committed corpus directory plus one control frame of each
//    CtrlType (built here, not committed: fuzz/corpus is also the
//    scenario benchmark's wire corpus) and then runs a deterministic
//    seeded mutation loop over both — the sanitizer-CI smoke shape, which
//    needs no fuzzer runtime.
//
//      $ ssps_decode_fuzz fuzz/corpus                      # replay only
//      $ ssps_decode_fuzz fuzz/corpus --iters 200000       # replay + mutate
//      $ ssps_decode_fuzz --write-corpus fuzz/corpus       # regenerate seeds
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/encode.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"
#include "proc/ctrl.hpp"
#include "pubsub/pubsub_node.hpp"
#include "pubsub/topics.hpp"
#include "sim/message_pool.hpp"
#include "wire/codec.hpp"

namespace {

/// The payload length a frame header at `header` declares (the u64 after
/// the type byte); the header's 13 bytes must be readable.
std::uint64_t declared_len(const std::uint8_t* header) {
  std::uint64_t len = 0;
  for (int i = 0; i < 8; ++i) {
    len |= static_cast<std::uint64_t>(header[1 + i]) << (8 * i);
  }
  return len;
}

/// The store decoded labels are looked up in: 16 publications under
/// 96-bit keys (one full word and part of a second), and its keys in key
/// order. Few keys, so that the short labels the mutation loop yields
/// often miss as well as hit: against 64 keys, 20,000 lookups saw 5 misses.
struct FixedStore {
  ssps::pubsub::PatriciaTrie trie{96};
  std::vector<ssps::pubsub::BitString> keys;

  FixedStore() {
    for (std::uint64_t i = 0; i < 16; ++i) {
      const ssps::sim::NodeId origin{i % 7 + 1};
      trie.insert(ssps::pubsub::Publication{
          origin, ssps::pubsub::Payload::keyed(origin, "store-" + std::to_string(i))});
    }
    keys = trie.keys();
  }
};

/// locate() and collect_prefix() for `probe` must agree with a linear scan
/// of the fixed store's keys.
void check_lookup(const ssps::pubsub::BitString& probe) {
  using Kind = ssps::pubsub::Locate::Kind;
  static const FixedStore store;
  std::vector<const ssps::pubsub::BitString*> under;
  for (const ssps::pubsub::BitString& key : store.keys) {
    if (probe.is_prefix_of(key)) under.push_back(&key);
  }
  const std::vector<ssps::pubsub::Publication> got = store.trie.collect_prefix(probe);
  if (got.size() != under.size()) __builtin_trap();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (store.trie.key_of(got[i]) != *under[i]) __builtin_trap();
  }
  const ssps::pubsub::Locate loc = store.trie.locate(probe);
  if (under.empty()) {
    if (loc.kind != Kind::kMiss) __builtin_trap();
    return;
  }
  // The node holding exactly these keys is labeled with their longest
  // common prefix: exact if that is the probe, else its minimal extension.
  const std::size_t lcp = under.front()->common_prefix_len(*under.back());
  const Kind kind = lcp == probe.size() ? Kind::kExact : Kind::kExtension;
  const std::size_t children = kind == Kind::kExact && under.size() > 1 ? 2 : 0;
  if (loc.kind != kind || loc.node.label != under.front()->prefix(lcp) ||
      loc.is_leaf != (under.size() == 1) || loc.children.size() != children) {
    __builtin_trap();
  }
}

/// The message leg: decode must be total, and a successful decode must
/// re-encode to exactly the consumed frame (trailing bytes past the
/// declared payload are stream residue, not frame content).
void message_leg(const std::uint8_t* data, std::size_t size) {
  ssps::sim::MessagePool pool;
  const std::span<const std::uint8_t> bytes(data, size);
  ssps::wire::DecodeResult result = ssps::wire::decode_message(bytes, pool);
  if (!result.ok()) return;

  std::vector<std::uint8_t> reencoded;
  if (!ssps::wire::encode_message(*result.msg, reencoded)) __builtin_trap();
  if (reencoded.size() > size) __builtin_trap();
  if (std::memcmp(reencoded.data(), data, reencoded.size()) != 0) __builtin_trap();

  // Decoded messages are cloned across pools by the simulator (parallel
  // workers, snapshots); the clone must preserve the wire image.
  ssps::sim::MessagePool other;
  ssps::sim::PooledMsg clone = result.msg->clone_into(other);
  if (!clone) __builtin_trap();
  std::vector<std::uint8_t> cloned;
  if (!ssps::wire::encode_message(*clone, cloned)) __builtin_trap();
  if (cloned != reencoded) __builtin_trap();

  const ssps::sim::Message* inner = result.msg.get();
  while (const auto* env = ssps::sim::msg_cast<ssps::pubsub::TopicEnvelope>(*inner)) {
    inner = env->inner.get();
  }
  if (const auto* ct = ssps::sim::msg_cast<ssps::pubsub::msg::CheckTrie>(*inner)) {
    for (const ssps::pubsub::NodeSummary& tuple : ct->tuples) check_lookup(tuple.label);
  }
  if (const auto* cp = ssps::sim::msg_cast<ssps::pubsub::msg::CheckAndPublish>(*inner)) {
    for (const ssps::pubsub::NodeSummary& tuple : cp->tuples) check_lookup(tuple.label);
    check_lookup(cp->prefix);
  }
}

/// The control leg: parse_ctrl must be total, and a frame it accepts must
/// re-encode to its first 13 + declared-payload-length bytes (the rest is
/// stream residue, as above).
void ctrl_leg(const std::uint8_t* data, std::size_t size) {
  const ssps::proc::CtrlParse parsed = ssps::proc::parse_ctrl({data, size});
  if (!parsed.ok()) return;
  const std::uint64_t payload_len = declared_len(data);
  std::vector<std::uint8_t> reencoded;
  ssps::proc::encode_ctrl(*parsed.msg, reencoded);
  if (reencoded.size() != 13 + payload_len) __builtin_trap();
  if (std::memcmp(reencoded.data(), data, reencoded.size()) != 0) __builtin_trap();
}

/// The assembler leg: `data` as a stream, fed to a fresh assembler with a
/// payload cap of 16-255 bytes in segments of 1 to 2 * cap bytes, sizes
/// drawn from `rng`. Every view it returns must equal the next frame of a
/// reference walk over the whole input, and it must fail (kFrameTooLarge,
/// at that frame's stream offset) exactly where the walk meets a length
/// beyond the cap.
void assembler_leg(const std::uint8_t* data, std::size_t size, ssps::Rng& rng) {
  constexpr std::size_t kHeader = ssps::net::FrameAssembler::kHeaderBytes;
  const std::size_t cap = 16 + rng.below(240);

  // The reference walk: header, declared length, the cap.
  std::vector<std::span<const std::uint8_t>> want;
  std::size_t pos = 0;
  bool too_large = false;
  while (size - pos >= kHeader) {
    const std::uint64_t len = declared_len(data + pos);
    if (len > cap) {
      too_large = true;
      break;
    }
    if (size - pos - kHeader < len) break;  // the stream ends mid-frame
    want.emplace_back(data + pos, kHeader + len);
    pos += kHeader + static_cast<std::size_t>(len);
  }

  ssps::net::FrameAssembler assembler(cap);
  std::size_t got = 0;
  for (std::size_t fed = 0; fed < size;) {
    const std::size_t segment =
        std::min<std::size_t>(size - fed, 1 + rng.below(2 * cap));
    assembler.feed({data + fed, segment});
    fed += segment;
    // Each view is checked and parsed before the next feed invalidates it.
    while (const std::optional<std::span<const std::uint8_t>> frame = assembler.next()) {
      if (got == want.size() || frame->size() != want[got].size() ||
          std::memcmp(frame->data(), want[got].data(), frame->size()) != 0) {
        __builtin_trap();
      }
      ++got;
      (void)ssps::proc::parse_ctrl(*frame);
    }
  }
  if (got != want.size() || assembler.failed() != too_large) __builtin_trap();
  if (too_large) {
    if (assembler.error().status != ssps::wire::DecodeStatus::kFrameTooLarge ||
        assembler.error().offset != pos) {
      __builtin_trap();
    }
  } else if (assembler.buffered() != size - pos) {
    __builtin_trap();
  }
}

/// One fuzz iteration: the same bytes through both parsers and, as a
/// stream, through the assembler.
void one_input(const std::uint8_t* data, std::size_t size, ssps::Rng& rng) {
  message_leg(data, size);
  ctrl_leg(data, size);
  assembler_leg(data, size, rng);
}

}  // namespace

#ifdef SSPS_FUZZER

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  // Segment sizes follow from the input itself, so a crash reproduces
  // from the crashing input alone.
  ssps::Rng rng(ssps::wire::crc32({data, size}));
  one_input(data, size, rng);
  return 0;
}

#else  // standalone replay + deterministic mutation binary

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "core/messages.hpp"

namespace {

namespace fs = std::filesystem;
using ssps::core::IntroFlag;
using ssps::core::Label;
using ssps::core::LabeledRef;
using ssps::pubsub::BitString;
using ssps::pubsub::Digest;
using ssps::pubsub::NodeSummary;
using ssps::pubsub::Publication;
using ssps::sim::NodeId;

Digest fill_digest(std::uint8_t seed) {
  Digest d;
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<std::uint8_t>(seed + i);
  }
  return d;
}

/// One canonical instance of every WireType, encoded. The corpus seeds
/// must cover every decode_payload branch so mutations start inside each
/// message's structure instead of having to discover the type bytes.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> seed_corpus() {
  namespace msg = ssps::core::msg;
  namespace pmsg = ssps::pubsub::msg;
  ssps::sim::MessagePool pool;
  const Label label0 = Label::from_index(0);
  const Label label3 = Label::from_index(3);
  const LabeledRef ref{label3, NodeId{7}};

  std::vector<std::pair<std::string, ssps::sim::PooledMsg>> samples;
  samples.emplace_back("subscribe", pool.make<msg::Subscribe>(NodeId{2}));
  samples.emplace_back("unsubscribe", pool.make<msg::Unsubscribe>(NodeId{3}));
  samples.emplace_back("get-configuration",
                       pool.make<msg::GetConfiguration>(NodeId{4}, NodeId{5}));
  samples.emplace_back(
      "set-data", pool.make<msg::SetData>(ref, label0, LabeledRef{label0, NodeId{9}}));
  samples.emplace_back("set-data-evict",
                       pool.make<msg::SetData>(std::nullopt, std::nullopt, std::nullopt));
  samples.emplace_back("check",
                       pool.make<msg::Check>(ref, label0, IntroFlag::kCyclic));
  samples.emplace_back("introduce",
                       pool.make<msg::Introduce>(ref, IntroFlag::kLinear));
  samples.emplace_back("remove-connections",
                       pool.make<msg::RemoveConnections>(NodeId{6}));
  samples.emplace_back("introduce-shortcut", pool.make<msg::IntroduceShortcut>(ref));

  std::vector<NodeSummary> tuples;
  tuples.push_back(NodeSummary{BitString::from_uint(0b101, 3), fill_digest(1)});
  tuples.push_back(NodeSummary{BitString::from_uint(0b1100, 4), fill_digest(9)});
  samples.emplace_back("check-trie", pool.make<pmsg::CheckTrie>(NodeId{8}, tuples));
  samples.emplace_back("check-and-publish",
                       pool.make<pmsg::CheckAndPublish>(NodeId{8}, tuples,
                                                        BitString::from_uint(0b10, 2)));
  std::vector<Publication> pubs;
  pubs.push_back(Publication{NodeId{11}, "breaking news", 0});
  pubs.push_back(Publication{NodeId{12}, "", 0});
  samples.emplace_back("publish", pool.make<pmsg::Publish>(pubs));
  samples.emplace_back("publish-new",
                       pool.make<pmsg::PublishNew>(Publication{NodeId{13}, "x", 0}));
  samples.emplace_back(
      "topic-envelope",
      pool.make<ssps::pubsub::TopicEnvelope>(
          42, pool.make<msg::Subscribe>(NodeId{2})));
  samples.emplace_back(
      "topic-envelope-nested",
      pool.make<ssps::pubsub::TopicEnvelope>(
          1, pool.make<ssps::pubsub::TopicEnvelope>(
                 2, pool.make<msg::RemoveConnections>(NodeId{3}))));
  samples.emplace_back("hello", pool.make<ssps::wire::Hello>(
                                    ssps::wire::kProtocolVersion, NodeId{5}));

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;
  for (const auto& [name, sample] : samples) {
    std::vector<std::uint8_t> bytes;
    if (!ssps::wire::encode_message(*sample, bytes)) __builtin_trap();
    out.emplace_back(name, std::move(bytes));
  }
  // Structurally broken seeds: each exercises one DecodeStatus branch.
  out.emplace_back("broken-empty", std::vector<std::uint8_t>{});
  out.emplace_back("broken-truncated-header", std::vector<std::uint8_t>{1, 2, 3});
  {
    std::vector<std::uint8_t> bad = out[0].second;  // subscribe frame
    bad.back() ^= 0xFF;                             // payload damage -> bad CRC
    out.emplace_back("broken-checksum", std::move(bad));
  }
  {
    std::vector<std::uint8_t> unknown = out[0].second;
    unknown[0] = 200;  // type byte outside the enum
    out.emplace_back("broken-unknown-type", std::move(unknown));
  }
  {
    // A future-version Hello with a correct checksum: the handshake
    // rejection path (kVersionMismatch) the deployment transport takes
    // when two builds meet.
    std::vector<std::uint8_t> bytes;
    ssps::common::Encoder payload;
    payload.u32(ssps::wire::kProtocolVersion + 1);
    payload.u64(5);
    bytes.push_back(static_cast<std::uint8_t>(ssps::wire::WireType::kHello));
    const std::uint64_t len = payload.buffer().size();
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    }
    std::uint32_t crc = ssps::wire::crc32({bytes.data(), 1});
    crc = ssps::wire::crc32(payload.buffer(), crc);
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    }
    bytes.insert(bytes.end(), payload.buffer().begin(), payload.buffer().end());
    out.emplace_back("hello-version-mismatch", std::move(bytes));
  }
  return out;
}

/// One valid control frame of each CtrlType, each checked to parse.
std::vector<std::vector<std::uint8_t>> ctrl_seeds() {
  const std::vector<std::uint8_t> inner = seed_corpus().front().second;  // Subscribe
  ssps::proc::Relay relay;
  relay.from = 3;
  relay.to = 8;
  relay.index = 41;
  relay.frame = inner;
  const ssps::proc::CtrlMsg msgs[] = {
      ssps::proc::RoundGo{12},
      ssps::proc::RoundDone{12, 0x0123456789abcdefULL, 2},
      relay,
      ssps::proc::Restore{12, 1},
      ssps::proc::Report{"{\n  \"ok\": true\n}"},
      ssps::proc::Shutdown{},
  };
  std::vector<std::vector<std::uint8_t>> out;
  for (const ssps::proc::CtrlMsg& msg : msgs) {
    std::vector<std::uint8_t> frame;
    ssps::proc::encode_ctrl(msg, frame);
    const ssps::proc::CtrlParse parsed = ssps::proc::parse_ctrl(frame);
    if (!parsed.ok() || parsed.msg->index() != msg.index()) __builtin_trap();
    out.push_back(std::move(frame));
  }
  return out;
}

/// Mutates `bytes` in place: byte flips, truncation, extension, splicing.
/// Half the time the frame CRC is recomputed afterwards so the mutation
/// reaches the payload decoders instead of dying at the checksum.
void mutate(std::vector<std::uint8_t>& bytes, ssps::Rng& rng) {
  const std::uint64_t flavor = rng.below(10);
  if (flavor < 5 || bytes.size() < 14) {
    const std::uint64_t flips = 1 + rng.below(8);
    for (std::uint64_t i = 0; i < flips && !bytes.empty(); ++i) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<std::uint8_t>(1U << rng.below(8));
    }
  } else if (flavor < 7) {
    bytes.resize(rng.below(bytes.size()));  // truncate
  } else if (flavor < 9) {
    const std::uint64_t extra = 1 + rng.below(32);
    for (std::uint64_t i = 0; i < extra; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(rng.next()));
    }
  } else {
    const std::uint64_t at = rng.below(bytes.size());
    bytes[at] = static_cast<std::uint8_t>(rng.next());
  }
  if (bytes.size() >= 13 && rng.below(2) == 0) {
    // Re-seal the frame: valid header + CRC over the mutated payload.
    const std::uint64_t payload_len = declared_len(bytes.data());
    if (payload_len <= bytes.size() - 13) {
      std::uint32_t crc = ssps::wire::crc32({&bytes[0], 1});
      crc = ssps::wire::crc32({bytes.data() + 13, payload_len}, crc);
      for (int i = 0; i < 4; ++i) {
        bytes[9 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
      }
    }
  }
}

/// True when `bytes` is exactly one frame by its header's length claim.
bool whole_frame(const std::vector<std::uint8_t>& bytes) {
  return bytes.size() >= ssps::net::FrameAssembler::kHeaderBytes &&
         declared_len(bytes.data()) ==
             bytes.size() - ssps::net::FrameAssembler::kHeaderBytes;
}

/// A stream for the assembler leg. Most hold 2-8 corpus entries back to
/// back, each mutated with probability 1/4. One in 64 holds 100-300
/// unmutated whole frames (5-30 KiB), then one mutated entry: streams
/// that long make the assembler compact its buffer between frames.
std::vector<std::uint8_t> stream_of(const std::vector<std::vector<std::uint8_t>>& corpus,
                                    ssps::Rng& rng) {
  std::vector<std::uint8_t> stream;
  if (rng.below(64) == 0) {
    for (std::uint64_t n = 100 + rng.below(201); n > 0;) {
      const std::vector<std::uint8_t>& entry = corpus[rng.below(corpus.size())];
      if (!whole_frame(entry)) continue;
      stream.insert(stream.end(), entry.begin(), entry.end());
      --n;
    }
    std::vector<std::uint8_t> tail = corpus[rng.below(corpus.size())];
    mutate(tail, rng);
    stream.insert(stream.end(), tail.begin(), tail.end());
    return stream;
  }
  for (std::uint64_t n = 2 + rng.below(7); n > 0; --n) {
    std::vector<std::uint8_t> entry = corpus[rng.below(corpus.size())];
    if (rng.below(4) == 0) mutate(entry, rng);
    stream.insert(stream.end(), entry.begin(), entry.end());
  }
  return stream;
}

void dump(const char* what, std::uint64_t iteration,
          const std::vector<std::uint8_t>& bytes) {
  std::printf("iteration %llu %s (%zu bytes):",
              static_cast<unsigned long long>(iteration), what, bytes.size());
  for (std::uint8_t b : bytes) std::printf(" %02x", b);
  std::printf("\n");
  std::fflush(stdout);
}

int write_corpus(const fs::path& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  for (const auto& [name, bytes] : seed_corpus()) {
    std::ofstream out(dir / (name + ".bin"), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::fprintf(stderr, "ssps_decode_fuzz: cannot write %s\n",
                   (dir / (name + ".bin")).c_str());
      return 1;
    }
  }
  std::printf("wrote %zu corpus seeds to %s\n", seed_corpus().size(),
              dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_dir;
  std::uint64_t iters = 0;
  std::uint64_t seed = 1;
  std::uint64_t dump_at = 0;
  bool write = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--write-corpus") {
      write = true;
    } else if (arg == "--iters" && i + 1 < argc) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--dump-at" && i + 1 < argc) {
      dump_at = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ssps_decode_fuzz [--write-corpus] <corpus-dir>\n"
          "                        [--iters <n>] [--seed <u64>] [--dump-at <n>]\n");
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      corpus_dir = arg;
    } else {
      std::fprintf(stderr, "ssps_decode_fuzz: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (corpus_dir.empty()) {
    std::fprintf(stderr, "ssps_decode_fuzz: corpus directory required\n");
    return 2;
  }
  if (write) return write_corpus(corpus_dir);

  // Replay: every committed corpus entry, in sorted order (determinism).
  ssps::Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> corpus;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(corpus_dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    one_input(bytes.data(), bytes.size(), rng);
    corpus.push_back(std::move(bytes));
  }
  if (corpus.empty()) {
    std::fprintf(stderr, "ssps_decode_fuzz: no corpus files in %s\n",
                 corpus_dir.c_str());
    return 2;
  }
  const std::size_t files_replayed = corpus.size();
  for (std::vector<std::uint8_t>& frame : ctrl_seeds()) {
    one_input(frame.data(), frame.size(), rng);
    corpus.push_back(std::move(frame));
  }
  std::printf("replayed %zu corpus entries and %zu control frames\n", files_replayed,
              corpus.size() - files_replayed);

  // Deterministic mutation loop seeded from the corpus: each iteration
  // runs one mutated input through every leg and one built stream through
  // the assembler leg. A trap at iteration N reproduces with --dump-at N,
  // which prints both as hex before running them.
  for (std::uint64_t i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> bytes = corpus[rng.below(corpus.size())];
    mutate(bytes, rng);
    const std::vector<std::uint8_t> stream = stream_of(corpus, rng);
    if (i + 1 == dump_at) {
      dump("input", i + 1, bytes);
      dump("stream", i + 1, stream);
    }
    one_input(bytes.data(), bytes.size(), rng);
    assembler_leg(stream.data(), stream.size(), rng);
  }
  if (iters > 0) {
    std::printf("ran %llu mutated inputs (seed %llu)\n",
                static_cast<unsigned long long>(iters),
                static_cast<unsigned long long>(seed));
  }
  return 0;
}

#endif  // SSPS_FUZZER
