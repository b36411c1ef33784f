#include "corpus/corpus.h"

#include <cstring>
#include <iterator>

#include "common/check.h"
#include "common/logging.h"
#include "lz4/lz4.h"

namespace smartds::corpus {

namespace {

// Every generator below writes its profile in place: it takes a pointer
// into a buffer that holds at least `size + generatorSlack` bytes, writes
// whole records until it has produced `size` bytes or more, and returns
// the end of what it wrote. The caller truncates to `size`. The draws
// made for the overshooting record still advance the RNG, and the next
// part of a corpus continues from there; the corpus bytes depend on it.
// Every record starts below `size`, and the
// furthest any write reaches from a record's start is 61 bytes (the
// fixed-width copy of an XML closing tag), so the slack covers them all.
constexpr std::size_t generatorSlack = 128;

// ------------------------------------------------------------------ Text

const char *const vocabulary[] = {
    "the",      "of",        "and",      "a",         "to",       "in",
    "he",       "was",       "that",     "it",        "his",      "her",
    "with",     "as",        "had",      "for",       "she",      "not",
    "at",       "but",       "be",       "on",        "they",     "have",
    "him",      "which",     "said",     "from",      "all",      "this",
    "when",     "were",      "would",    "there",     "been",     "their",
    "one",      "could",     "very",     "an",        "some",     "them",
    "more",     "out",       "into",     "man",       "up",       "time",
    "little",   "about",     "storage",  "request",   "server",   "memory",
    "network",  "compress",  "message",  "latency",   "cloud",    "virtual",
    "machine",  "segment",   "chunk",    "header",    "payload",  "through",
    "whatever", "certainly", "together", "character", "business", "morning",
};
constexpr std::size_t vocabularySize =
    sizeof(vocabulary) / sizeof(vocabulary[0]);

/**
 * A word or phrase padded to a fixed width, so the writers copy it with
 * one constant-size memcpy and advance by its true length.
 */
template <std::size_t Width>
struct Padded
{
    std::uint8_t len = 0;
    char text[Width] = {};

    explicit Padded(const char *s)
    {
        const std::size_t n = std::strlen(s);
        SMARTDS_CHECK(n <= Width, "corpus word '%s' wider than %zu", s, Width);
        std::memcpy(text, s, n);
        len = static_cast<std::uint8_t>(n);
    }

    std::uint8_t *
    write(std::uint8_t *p) const
    {
        std::memcpy(p, text, Width);
        return p + len;
    }
};

/** A vocabulary word in lower case and sentence-initial capitalised form. */
struct Word
{
    Padded<16> lower;
    Padded<16> capital;

    explicit Word(const char *s) : lower(s), capital(s)
    {
        capital.text[0] = static_cast<char>(capital.text[0] - 'a' + 'A');
    }
};

const std::vector<Word> &
wordTable()
{
    static const std::vector<Word> table(std::begin(vocabulary),
                                         std::end(vocabulary));
    return table;
}

std::uint8_t *
writeText(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // Recurring stock phrases model the multi-word repetition real prose
    // has (names, idioms) that single-word sampling misses.
    static const Padded<32> phrases[] = {
        Padded<32>("the middle tier server "),
        Padded<32>("it was the best of times "),
        Padded<32>("in the course of the morning "),
        Padded<32>("as a matter of fact "),
    };
    const std::vector<Word> &words = wordTable();
    std::uint8_t *p = out;
    std::uint8_t *const target = out + size;
    std::size_t words_in_sentence = 0;
    while (p < target) {
        if (words_in_sentence > 0 && rng.chance(0.12)) {
            p = phrases[rng.below(4)].write(p);
            words_in_sentence += 4;
            continue;
        }
        // simlint: allow(zipf-approx): the corpus text generator's word
        // draws seed every committed CSV; the exact sampler would change
        // the corpus bytes and with them every baseline
        const Word &word = words[rng.zipfApprox(vocabularySize, 1.0)];
        if (words_in_sentence == 0) {
            if (p != out)
                *p++ = ' ';
            p = word.capital.write(p);
        } else {
            p = word.lower.write(p);
        }
        ++words_in_sentence;
        if (words_in_sentence > 6 && rng.chance(0.18)) {
            *p++ = '.';
            *p++ = rng.chance(0.1) ? '\n' : ' ';
            words_in_sentence = 0;
        } else if (rng.chance(0.05)) {
            *p++ = ',';
            *p++ = ' ';
        } else {
            *p++ = ' ';
        }
    }
    return p;
}

// ------------------------------------------------------------------- XML

const char *const xmlTags[] = {"record", "molecule", "atom",  "bond",
                               "entry",  "property", "value", "name",
                               "item",   "field"};
constexpr std::size_t xmlTagCount = sizeof(xmlTags) / sizeof(xmlTags[0]);

template <std::size_t N>
std::uint8_t *
writeLiteral(std::uint8_t *p, const char (&s)[N])
{
    std::memcpy(p, s, N - 1);
    return p + N - 1;
}

std::uint8_t *
writeXml(std::uint8_t *out, std::size_t size, Rng &rng)
{
    static const std::vector<Padded<16>> tags(std::begin(xmlTags),
                                              std::end(xmlTags));
    std::uint8_t *p = writeLiteral(out, "<?xml version=\"1.0\"?>\n<dataset>\n");
    std::uint8_t *const target = out + size;
    while (p < target) {
        const Padded<16> &tag = tags[rng.below(xmlTagCount)];
        // The record was once one snprintf whose four rng.below()
        // arguments GCC evaluated right to left, so the corpus draws the
        // value's fraction digit first and the id last. The order is
        // spelled out here to keep the corpus bytes; clang evaluates such
        // arguments left to right and would have produced another corpus.
        const auto fraction = rng.below(10);
        const auto integer = rng.below(10);
        const auto type = rng.below(3);
        const auto id = rng.below(100); // printed as %03llu: always 0XY
        p = writeLiteral(p, "  <");
        p = tag.write(p);
        p = writeLiteral(p, " id=\"0");
        *p++ = static_cast<std::uint8_t>('0' + id / 10);
        *p++ = static_cast<std::uint8_t>('0' + id % 10);
        p = writeLiteral(p, "\" type=\"");
        *p++ = static_cast<std::uint8_t>('A' + type);
        p = writeLiteral(p, "\" unit=\"mol\">");
        *p++ = static_cast<std::uint8_t>('0' + integer);
        *p++ = '.';
        *p++ = static_cast<std::uint8_t>('0' + fraction);
        p = writeLiteral(p, "</");
        p = tag.write(p);
        p = writeLiteral(p, ">\n");
    }
    return p;
}

// -------------------------------------------------------------- Database

std::uint8_t *
writeDatabase(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // Fixed 64-byte records: id (8B ascending), low-cardinality category
    // bytes, a few correlated counters and a short fixed-alphabet string —
    // the shape of osdb-like row storage.
    static const char names[4][12] = {"WIDGET-STD ", "WIDGET-PRO ",
                                      "GADGET-MINI", "GADGET-MAX "};
    std::uint8_t *p = out;
    std::uint8_t *const target = out + size;
    std::uint64_t id = 100000;
    while (p < target) {
        // Trailing padding stays zero (very compressible, like real rows).
        std::memset(p, 0, 64);
        std::memcpy(p, &id, sizeof(id));
        ++id;
        p[8] = static_cast<std::uint8_t>(rng.below(8));  // category
        p[9] = static_cast<std::uint8_t>(rng.below(4));  // region
        p[10] = static_cast<std::uint8_t>(rng.below(2)); // flag
        const std::uint32_t qty = static_cast<std::uint32_t>(rng.below(500));
        std::memcpy(p + 12, &qty, sizeof(qty));
        const std::uint32_t price = qty * 99 + 1000;
        std::memcpy(p + 16, &price, sizeof(price));
        std::memcpy(p + 20, names[rng.below(4)], 11);
        p += 64;
    }
    return p;
}

// ------------------------------------------------------------ Executable

std::uint8_t *
writeExecutable(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // Instruction-like stream: common opcode bytes with operand bytes of
    // mixed entropy, function prologues repeating every so often, and
    // embedded pointer-table runs. Tuned to land near mozilla/ooffice
    // block ratios (~0.65-0.8).
    static const std::uint8_t prologue[] = {0x55, 0x48, 0x89, 0xe5, 0x41,
                                            0x57, 0x41, 0x56, 0x53, 0x50};
    static const std::uint8_t opcodes[] = {0x48, 0x8b, 0x89, 0xe8,
                                           0xff, 0x83, 0xc3, 0x74,
                                           0x75, 0x0f, 0x31, 0x85};
    std::uint8_t *p = out;
    std::uint8_t *const target = out + size;
    while (p < target) {
        const double what = rng.uniform();
        if (what < 0.12) {
            std::memcpy(p, prologue, sizeof(prologue));
            p += sizeof(prologue);
        } else if (what < 0.26) {
            // Pointer table: consecutive addresses, high bytes constant.
            const std::uint64_t base =
                0x00007f0000400000ULL + rng.below(1u << 20);
            for (int i = 0; i < 8 && p < target; ++i) {
                const std::uint64_t ptr =
                    base + static_cast<std::uint64_t>(i) * 16;
                std::memcpy(p, &ptr, sizeof(ptr));
                p += sizeof(ptr);
            }
        } else {
            // A short "instruction": opcode from a small set + operands.
            *p++ = opcodes[rng.below(sizeof(opcodes))];
            const unsigned operands = 1 + static_cast<unsigned>(rng.below(4));
            for (unsigned i = 0; i < operands; ++i) {
                *p++ = rng.chance(0.5)
                           ? static_cast<std::uint8_t>(rng.below(16))
                           : static_cast<std::uint8_t>(rng.below(256));
            }
        }
    }
    return p;
}

// ------------------------------------------------------------ Scientific

std::uint8_t *
writeScientific(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // sao-like star-catalogue records: double-precision values whose
    // exponent bytes repeat but whose mantissa bytes are noise; barely
    // compressible (~0.9).
    std::uint8_t *p = out;
    std::uint8_t *const target = out + size;
    double ra = 0.0;
    while (p < target) {
        ra += rng.uniform() * 1e-3;
        const double dec = (rng.uniform() - 0.5) * 3.14159;
        const float mag = static_cast<float>(5.0 + rng.uniform() * 10.0);
        const std::uint32_t cat = static_cast<std::uint32_t>(rng.below(16));
        std::memcpy(p, &ra, 8);
        std::memcpy(p + 8, &dec, 8);
        std::memcpy(p + 16, &mag, 4);
        std::memcpy(p + 20, &cat, 4);
        p += 24;
    }
    return p;
}

// --------------------------------------------------------------- Imaging

std::uint8_t *
writeImaging(std::uint8_t *out, std::size_t size, Rng &rng)
{
    // x-ray-like: 12-bit samples in 16-bit words with heavy sensor noise;
    // nearly incompressible (~0.98+).
    std::uint8_t *p = out;
    std::uint8_t *const target = out + size;
    std::uint32_t level = 2048;
    while (p < target) {
        // Smooth base signal plus wide-band noise.
        level = (level * 15 + 1800 + static_cast<std::uint32_t>(rng.below(500))) / 16;
        const std::uint16_t sample = static_cast<std::uint16_t>(
            (level + rng.below(1024)) & 0x0fff);
        *p++ = static_cast<std::uint8_t>(sample & 0xff);
        *p++ = static_cast<std::uint8_t>(sample >> 8);
    }
    return p;
}

std::uint8_t *
writeProfile(Profile p, std::uint8_t *out, std::size_t size, Rng &rng)
{
    switch (p) {
      case Profile::Text:
        return writeText(out, size, rng);
      case Profile::Xml:
        return writeXml(out, size, rng);
      case Profile::Database:
        return writeDatabase(out, size, rng);
      case Profile::Executable:
        return writeExecutable(out, size, rng);
      case Profile::Scientific:
        return writeScientific(out, size, rng);
      case Profile::Imaging:
        return writeImaging(out, size, rng);
    }
    panic("unknown corpus profile");
}

/** Append exactly @p size bytes of profile @p p to @p out. */
void
appendProfile(Profile p, std::size_t size, Rng &rng,
              std::vector<std::uint8_t> &out)
{
    const std::size_t base = out.size();
    out.resize(base + size + generatorSlack);
    const std::uint8_t *end = writeProfile(p, out.data() + base, size, rng);
    SMARTDS_CHECK(end <= out.data() + out.size(),
                  "%s generator overran its slack", profileName(p));
    out.resize(base + size);
}

} // namespace

const std::vector<Profile> &
allProfiles()
{
    static const std::vector<Profile> profiles = {
        Profile::Text,       Profile::Xml,        Profile::Database,
        Profile::Executable, Profile::Scientific, Profile::Imaging,
    };
    return profiles;
}

const char *
profileName(Profile p)
{
    switch (p) {
      case Profile::Text:
        return "text";
      case Profile::Xml:
        return "xml";
      case Profile::Database:
        return "database";
      case Profile::Executable:
        return "executable";
      case Profile::Scientific:
        return "scientific";
      case Profile::Imaging:
        return "imaging";
    }
    panic("unknown corpus profile");
}

std::vector<std::uint8_t>
generate(Profile p, std::size_t size, Rng &rng)
{
    std::vector<std::uint8_t> out;
    appendProfile(p, size, rng, out);
    return out;
}

SyntheticCorpus::SyntheticCorpus(std::size_t total_bytes, std::uint64_t seed)
    : seed_(seed)
{
    // Mixture approximating the Silesia composition by data kind.
    struct Part
    {
        Profile profile;
        double weight;
    };
    static const Part parts[] = {
        {Profile::Text, 0.34},     {Profile::Xml, 0.17},
        {Profile::Database, 0.16}, {Profile::Executable, 0.17},
        {Profile::Scientific, 0.08}, {Profile::Imaging, 0.08},
    };
    Rng rng(seed);
    // Every part is written straight into data_; one reservation covers
    // the slack the last part's generator may overshoot into.
    data_.reserve(total_bytes + generatorSlack);
    for (const auto &part : parts) {
        const auto n = static_cast<std::size_t>(
            part.weight * static_cast<double>(total_bytes));
        appendProfile(part.profile, n, rng, data_);
    }
    // Round up to the requested size with text.
    if (data_.size() < total_bytes)
        appendProfile(Profile::Text, total_bytes - data_.size(), rng, data_);
    data_.resize(total_bytes);
}

const std::uint8_t *
SyntheticCorpus::sampleBlockPtr(std::size_t block_size, Rng &rng) const
{
    return blockPtr(block_size, sampleBlockIndex(block_size, rng));
}

std::size_t
SyntheticCorpus::sampleBlockIndex(std::size_t block_size, Rng &rng) const
{
    return rng.below(blockCount(block_size));
}

std::size_t
SyntheticCorpus::blockCount(std::size_t block_size) const
{
    SMARTDS_CHECK(block_size > 0 && block_size <= data_.size(),
                   "block size %zu vs corpus %zu", block_size, data_.size());
    return data_.size() / block_size;
}

const std::uint8_t *
SyntheticCorpus::blockPtr(std::size_t block_size, std::size_t index) const
{
    SMARTDS_CHECK(index < blockCount(block_size),
                   "block index %zu out of %zu", index,
                   blockCount(block_size));
    return data_.data() + index * block_size;
}

std::vector<std::uint8_t>
SyntheticCorpus::sampleBlock(std::size_t block_size, Rng &rng) const
{
    const std::uint8_t *p = sampleBlockPtr(block_size, rng);
    return std::vector<std::uint8_t>(p, p + block_size);
}

RatioSampler::RatioSampler(const SyntheticCorpus &corpus,
                           std::size_t block_size, int effort,
                           std::size_t samples, std::uint64_t seed)
{
    SMARTDS_CHECK(samples > 0, "need at least one sample");
    Rng rng(seed);
    ratios_.reserve(samples);
    // A block's ratio depends only on its bytes and the effort, so each
    // distinct block is compressed once (512 draws over 1,024 blocks hit
    // about 400). Ratios are in (0, 1]; a negative memo entry is unset.
    std::vector<double> memo(corpus.blockCount(block_size), -1.0);
    lz4::Compressor compressor;
    double sum = 0.0;
    for (std::size_t i = 0; i < samples; ++i) {
        const std::size_t index = corpus.sampleBlockIndex(block_size, rng);
        double &r = memo[index];
        if (r < 0.0)
            r = compressor.compressionRatio(
                corpus.blockPtr(block_size, index), block_size, effort);
        ratios_.push_back(r);
        sum += r;
    }
    mean_ = sum / static_cast<double>(samples);
}

double
RatioSampler::sample(Rng &rng) const
{
    return ratios_[rng.below(ratios_.size())];
}

double
meanBlockRatio(const SyntheticCorpus &corpus, std::size_t block_size,
               int effort)
{
    const std::size_t blocks = corpus.blockCount(block_size);
    if (blocks == 0)
        return 1.0;
    lz4::Compressor compressor;
    double sum = 0.0;
    for (std::size_t i = 0; i < blocks; ++i)
        sum += compressor.compressionRatio(corpus.blockPtr(block_size, i),
                                           block_size, effort);
    return sum / static_cast<double>(blocks);
}

} // namespace smartds::corpus
