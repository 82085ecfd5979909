// Binary checkpoint archive (core/checkpoint.hpp).
//
// One archive serves both directions. A checkpointed type describes its
// state once, as a sequence of archive calls: a saving archive writes each
// value it is handed, a loading archive overwrites it with the value read
// back. Values are native-endian raw bytes (a bool as one 0/1 byte, an Rng
// as its four state words): checkpoints are tied to the build that wrote
// them (endianness and struct layout), and the file header gates any
// mismatch, so no portability machinery is needed.
//
// A loading archive trusts no length: a length prefix must fit in the
// bytes left in the file before anything is sized by it, so a corrupt
// prefix fails the restore instead of asking for gigabytes. Every byte
// either direction passes also feeds a running checksum (CkptChecksum),
// which seal() appends to the file or checks against its last 8 bytes.
// Bytes pass through one fixed 64 KiB buffer, so the file is read and
// written, and the checksum computed, a chunk at a time rather than per
// field, and never held whole in memory.
//
// Both directions carry a sticky error: the first failed read, write or
// check() poisons the archive and every later call is a no-op, so io code
// checks what it indexes with and otherwise validates once at the end.
#pragma once

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace ofar {

/// Streaming FNV-1a over native 64-bit words (FNV's basis and prime, one
/// xor-multiply per word), finished with the byte count. For a fixed state
/// each step is a bijection of its word, and for a fixed word one of the
/// state (the prime is odd), so a change confined to one byte always
/// changes the sum. Words are cut at offsets that are multiples of 8
/// whatever chunks add() is handed, so writer and reader agree.
class CkptChecksum {
 public:
  void add(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    bytes_ += n;
    while (n > 0) {
      if (fill_ == 0 && n >= 8) {
        mix(p);
        p += 8;
        n -= 8;
        continue;
      }
      const std::size_t take = std::min<std::size_t>(n, 8 - fill_);
      std::memcpy(buf_ + fill_, p, take);
      fill_ += static_cast<u32>(take);
      p += take;
      n -= take;
      if (fill_ == 8) {
        mix(buf_);
        fill_ = 0;
      }
    }
  }

  u64 value() const noexcept {
    CkptChecksum last = *this;
    if (last.fill_ != 0) {  // zero-pad the last partial word
      std::memset(last.buf_ + last.fill_, 0, 8 - last.fill_);
      last.mix(last.buf_);
    }
    return (last.sum_ ^ bytes_) * kPrime;
  }

 private:
  static constexpr u64 kPrime = 1099511628211ULL;

  void mix(const unsigned char* word) noexcept {
    u64 w;
    std::memcpy(&w, word, sizeof w);
    sum_ = (sum_ ^ w) * kPrime;
  }

  u64 sum_ = 14695981039346656037ULL;
  u64 bytes_ = 0;
  unsigned char buf_[8] = {};
  u32 fill_ = 0;
};

/// Whether the archive may copy a T as raw bytes: every byte of a T is a
/// byte of its value, so no padding (uninitialised memory) reaches a file
/// and two saves of one state are byte-identical. Integer-only types answer
/// through the standard trait, which is false for any type holding a
/// double; such a type specializes this to true beside a size assert that
/// proves it has no padding (core/checkpoint.cpp).
template <typename T>
inline constexpr bool kRawCheckpointable =
    std::has_unique_object_representations_v<T> ||
    std::is_floating_point_v<T>;

class CkptArchive {
 public:
  enum class Mode : u8 { kSave, kLoad };

  /// An archive over `f` from its current position; a loading archive
  /// measures the bytes left in the file.
  CkptArchive(std::FILE* f, Mode mode) noexcept : f_(f), mode_(mode) {
    if (mode != Mode::kLoad) return;
    const long at = std::ftell(f);
    if (at < 0 || std::fseek(f, 0, SEEK_END) != 0) return;
    const long end = std::ftell(f);
    if (end >= at && std::fseek(f, at, SEEK_SET) == 0)
      left_ = static_cast<u64>(end - at);
  }

  bool loading() const noexcept { return mode_ == Mode::kLoad; }
  bool ok() const noexcept { return error_ == nullptr; }
  /// The first failure, or nullptr.
  const char* error() const noexcept { return error_; }

  /// Fails the archive with `what` unless `cond` holds; returns ok().
  bool check(bool cond, const char* what) noexcept {
    if (!cond && error_ == nullptr) error_ = what;
    return ok();
  }

  /// Each value in turn: a trivially-copyable value as its bytes, a bool
  /// as one 0/1 byte, an Rng as its state words.
  template <typename... T>
  void io(T&... values) {
    (one(values), ...);
  }

  /// The elements of a container whose size the receiver's shape fixes
  /// (const only when saving).
  template <typename C>
  void fixed(C& c) {
    using T = std::remove_pointer_t<decltype(c.data())>;
    static_assert(kRawCheckpointable<std::remove_const_t<T>>);
    OFAR_DCHECK(!loading() || !std::is_const_v<T>);
    bytes(const_cast<std::remove_const_t<T>*>(c.data()),
          c.size() * sizeof(T));
  }

  /// A container with a u64 length prefix; a load resizes it first.
  template <typename C>
  void sized(C& c) {
    u64 n = c.size();
    length(n, sizeof *c.data());
    if (!ok()) return;
    c.resize(static_cast<std::size_t>(n));
    fixed(c);
  }

  /// A u64 count of `elem_size`-byte elements that follow. Loading, the
  /// elements must fit in the bytes left.
  void length(u64& n, std::size_t elem_size) {
    one(n);
    check(!loading() || n <= left_ / elem_size,
          "length prefix past the end of the checkpoint");
  }

  /// The end of the file. A saving archive appends the checksum of every
  /// byte before it; a loading one fails unless the file ends with the
  /// checksum of what it read.
  void seal() {
    if (!loading()) drain();
    sum_.add(buf_.data() + hashed_, pos_ - hashed_);
    hashed_ = pos_;
    const u64 sum = sum_.value();
    u64 stored = sum;
    one(stored);
    check(stored == sum, "checkpoint checksum mismatch");
    check(!loading() || left_ == 0, "bytes after the checkpoint checksum");
    if (!loading()) drain();
  }

 private:
  template <typename T>
  void one(T& v) {
    static_assert(kRawCheckpointable<T>);
    bytes(&v, sizeof v);
  }
  void one(bool& v) {
    u8 byte = v ? 1 : 0;
    one(byte);
    check(byte <= 1, "corrupt flag byte");
    v = byte != 0;
  }
  void one(Rng& rng) {
    std::array<u64, 4> state = rng.save_state();
    one(state);
    if (ok()) rng.load_state(state);
  }

  /// Copies `n` bytes between `p` and the buffer, refilling or draining
  /// it as it runs dry or full.
  void bytes(void* p, std::size_t n) {
    if (!ok() || n == 0) return;
    if (loading() && !check(n <= left_, "truncated checkpoint")) return;
    if (loading()) left_ -= n;
    auto* at = static_cast<unsigned char*>(p);
    while (n > 0) {
      if (pos_ == (loading() ? end_ : buf_.size()) &&
          !(loading() ? refill() : drain()))
        return;
      const std::size_t take =
          std::min(n, (loading() ? end_ : buf_.size()) - pos_);
      if (loading()) std::memcpy(at, buf_.data() + pos_, take);
      else std::memcpy(buf_.data() + pos_, at, take);
      pos_ += take;
      at += take;
      n -= take;
    }
  }

  /// Hashes the buffered bytes not yet hashed, then writes them out.
  bool drain() {
    sum_.add(buf_.data() + hashed_, pos_ - hashed_);
    const bool written = std::fwrite(buf_.data(), 1, pos_, f_) == pos_;
    pos_ = hashed_ = 0;
    return check(written, "checkpoint write failed");
  }

  /// Hashes the consumed bytes not yet hashed, then reads the next chunk.
  bool refill() {
    sum_.add(buf_.data() + hashed_, pos_ - hashed_);
    end_ = std::fread(buf_.data(), 1, buf_.size(), f_);
    pos_ = hashed_ = 0;
    return check(end_ > 0, "truncated checkpoint");
  }

  std::FILE* f_;
  Mode mode_;
  u64 left_ = 0;  ///< bytes not yet consumed (loading)
  const char* error_ = nullptr;
  CkptChecksum sum_;
  std::vector<unsigned char> buf_ = std::vector<unsigned char>(1u << 16);
  std::size_t pos_ = 0;     ///< next byte of buf_ to fill or consume
  std::size_t end_ = 0;     ///< bytes of file data in buf_ (loading)
  std::size_t hashed_ = 0;  ///< bytes of buf_ already hashed
};

}  // namespace ofar
