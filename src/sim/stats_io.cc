#include "sim/stats_io.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"

namespace regless::sim
{

namespace
{

/**
 * Internal parse failure. Thrown by the reader so callers choose the
 * policy: fromJson() converts it to fatal(), tryFromJson() to false.
 */
struct JsonParseError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

template <typename... Args>
[[noreturn]] void
parseFail(Args &&...args)
{
    throw JsonParseError(
        detail::formatMessage(std::forward<Args>(args)...));
}

/** Minimal JSON object writer: key ordering is emission order. */
class JsonObject
{
  public:
    explicit JsonObject(std::ostream &os) : _os(os) { _os << "{"; }

    ~JsonObject() { _os << "}"; }

    /** Write "<prefix><key>":<value>. */
    template <typename V>
    void
    field(std::string_view prefix, std::string_view key, const V &value)
    {
        if (_first)
            _first = false;
        else
            _os << ",";
        _os << "\"" << prefix << key << "\":";
        if constexpr (std::is_same_v<V, std::string>) {
            _os << "\"";
            for (char c : value) {
                if (c == '"' || c == '\\')
                    _os << '\\';
                _os << c;
            }
            _os << "\"";
        } else if constexpr (std::is_same_v<V, ProviderKind>) {
            _os << "\"" << providerName(value) << "\"";
        } else if constexpr (std::is_same_v<V, std::vector<double>>) {
            _os << "[";
            for (std::size_t i = 0; i < value.size(); ++i)
                _os << (i ? "," : "") << value[i];
            _os << "]";
        } else {
            static_assert(std::is_arithmetic_v<V>);
            _os << value;
        }
    }

    template <typename V>
    void
    field(std::string_view key, const V &value)
    {
        field({}, key, value);
    }

  private:
    std::ostream &_os;
    bool _first = true;
};

/**
 * Single-pass parser for the flat writeJson() schema: one object of
 * string / number / array-of-number values. The field a key names
 * reads its own value, so a value of the wrong kind fails to parse.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : _text(text) {}

    /** Length of the whole input in bytes. */
    std::size_t size() const { return _text.size(); }

    void
    skipSpace()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    char
    peek()
    {
        skipSpace();
        if (_pos >= _text.size())
            parseFail("stats JSON: unexpected end of input");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            parseFail("stats JSON: expected '", c, "' at offset ", _pos,
                  ", found '", _text[_pos], "'");
        ++_pos;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (_pos < _text.size() && _text[_pos] != '"') {
            char c = _text[_pos++];
            if (c == '\\') {
                if (_pos >= _text.size())
                    parseFail("stats JSON: dangling escape");
                c = _text[_pos++];
            }
            out.push_back(c);
        }
        if (_pos >= _text.size())
            parseFail("stats JSON: unterminated string");
        ++_pos; // closing quote
        return out;
    }

    double
    parseNumber()
    {
        skipSpace();
        const char *begin = _text.c_str() + _pos;
        char *end = nullptr;
        double value = std::strtod(begin, &end);
        if (end == begin)
            parseFail("stats JSON: expected a number at offset ", _pos);
        _pos += static_cast<std::size_t>(end - begin);
        return value;
    }

    /** Parse "<open>item,item...<close>", calling @a item for each. */
    template <typename Fn>
    void
    parseList(char open, char close, Fn &&item)
    {
        expect(open);
        if (peek() == close) {
            ++_pos;
            return;
        }
        for (;;) {
            item();
            const char c = peek();
            ++_pos;
            if (c == close)
                return;
            if (c != ',')
                parseFail("stats JSON: expected ',' or '", close,
                          "' at offset ", _pos - 1);
        }
    }

    std::vector<double>
    parseNumberArray()
    {
        std::vector<double> out;
        parseList('[', ']', [&] { out.push_back(parseNumber()); });
        return out;
    }

    /** Skip the value of a key no field knows. */
    void
    skipValue()
    {
        const char c = peek();
        if (c == '"')
            parseString();
        else if (c == '[')
            parseNumberArray();
        else
            parseNumber();
    }

    /** Parse an object; @a on_key(key) must consume each value. */
    template <typename Fn>
    void
    parseObject(Fn &&on_key)
    {
        parseList('{', '}', [&] {
            const std::string key = parseString();
            expect(':');
            on_key(key);
        });
    }

  private:
    const std::string &_text;
    std::size_t _pos = 0;
};

/** Suffix of the key that sizes a nested vector ("tenant_count"). */
constexpr std::string_view kCountSuffix = "_count";

/** A count of type T: an integral number in [0, max of T], and at
 *  most @a bound. */
template <typename T>
T
readCount(JsonReader &reader,
          double bound = std::numeric_limits<double>::infinity())
{
    const double n = reader.parseNumber();
    // 2^digits is the first integer past T's range and is exact as a
    // double (T's max itself may round up to it).
    if (!(n >= 0.0 && n < std::ldexp(1.0, std::numeric_limits<T>::digits) &&
          n <= bound && std::trunc(n) == n))
        parseFail("stats JSON: ", n, " is not a count");
    return static_cast<T>(n);
}

template <typename T>
void
readValue(JsonReader &reader, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = reader.parseString();
    } else if constexpr (std::is_same_v<T, ProviderKind>) {
        const std::string name = reader.parseString();
        if (!tryProviderFromName(name, out))
            parseFail("stats JSON: unknown provider '", name, "'");
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
        out = reader.parseNumberArray();
    } else if constexpr (std::is_floating_point_v<T>) {
        out = reader.parseNumber();
    } else {
        out = readCount<T>(reader);
    }
}

template <typename S>
bool readField(S &s, std::string_view key, JsonReader &reader);

/**
 * A key of a nested vector, after its prefix: kCountSuffix sizes the
 * vector (it precedes the items in emission order), and "<i>_<key>"
 * is @a key of item i. Keys of items past the count are unknown.
 */
template <typename T>
bool
readItem(std::vector<T> &items, std::string_view key, JsonReader &reader)
{
    if (key == kCountSuffix) {
        // Every item takes more than a byte of input, so a larger
        // count is hostile and would only exhaust memory.
        items.resize(readCount<std::size_t>(
            reader, static_cast<double>(reader.size())));
        return true;
    }
    std::size_t i = 0;
    const char *const end = key.data() + key.size();
    const auto [sep, err] = std::from_chars(key.data(), end, i);
    if (err != std::errc() || sep == end || *sep != '_' ||
        i >= items.size())
        return false;
    return readField(items[i], std::string_view(sep + 1, end), reader);
}

/**
 * Read the value of the field of @a s whose key (relative to @a s's
 * table) is @a key. False, with the value unread, when no row has the
 * key: unknown keys are skipped so the schema can grow.
 */
template <typename S>
bool
readField(S &s, std::string_view key, JsonReader &reader)
{
    bool found = false;
    forEachField<S>([&](const auto &row) {
        if (found || !key.starts_with(row.key))
            return;
        using T = FieldType<decltype(row)>;
        const std::string_view rest = key.substr(row.key.size());
        if constexpr (std::is_function_v<T>) {
            // Derived (energy_total): written for readers, never read.
            return;
        } else if constexpr (HasFields<T>) {
            found = readField(s.*row.member, rest, reader);
        } else if constexpr (kIsTableVector<T>) {
            found = readItem(s.*row.member, rest, reader);
        } else if constexpr (std::is_same_v<T, StallCounts>) {
            for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
                const auto cause = static_cast<arch::StallCause>(c);
                if (rest == arch::stallCauseName(cause)) {
                    (s.*row.member)[c] = readCount<std::uint64_t>(reader);
                    found = true;
                    break;
                }
            }
        } else if (rest.empty()) {
            readValue(reader, s.*row.member);
            found = true;
        }
    });
    return found;
}

RunStats
parseRun(JsonReader &reader)
{
    RunStats stats;
    reader.parseObject([&](const std::string &key) {
        if (!readField(stats, key, reader))
            reader.skipValue();
    });
    return stats;
}

/** Turn a parse failure into false and the diagnostic in @a error. */
template <typename Fn>
bool
tryParse(Fn &&parse, std::string *error)
{
    try {
        parse();
        return true;
    } catch (const JsonParseError &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

/** Write one object at full precision, so doubles survive a write ->
 * read round-trip. */
template <typename Fn>
void
writeObject(std::ostream &os, Fn &&fill)
{
    const auto saved =
        os.precision(std::numeric_limits<double>::max_digits10);
    {
        JsonObject obj(os);
        fill(obj);
    }
    os.precision(saved);
}

/** Emit the fields of @a s's table into an open object (shared by the
 * plain writer and the JobRecord writer). */
template <typename S>
void
writeFields(JsonObject &obj, const std::string &prefix, const S &s)
{
    forEachField<S>([&](const auto &row) {
        using T = FieldType<decltype(row)>;
        if constexpr (std::is_function_v<T>) {
            obj.field(prefix, row.key, (s.*row.member)());
        } else if constexpr (HasFields<T>) {
            writeFields(obj, prefix + std::string(row.key), s.*row.member);
        } else if constexpr (kIsTableVector<T>) {
            // Items are emitted only when present, so single-tenant
            // JSON stays byte-identical to pre-tenant builds.
            const T &items = s.*row.member;
            if (items.empty())
                return;
            const std::string inner = prefix + std::string(row.key);
            obj.field(inner, kCountSuffix,
                      static_cast<std::uint64_t>(items.size()));
            for (std::size_t i = 0; i < items.size(); ++i)
                writeFields(obj, inner + std::to_string(i) + "_",
                            items[i]);
        } else if constexpr (std::is_same_v<T, StallCounts>) {
            const std::string inner = prefix + std::string(row.key);
            for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
                obj.field(inner,
                          arch::stallCauseName(
                              static_cast<arch::StallCause>(c)),
                          (s.*row.member)[c]);
            }
        } else {
            obj.field(prefix, row.key, s.*row.member);
        }
    });
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Failed:
        return "failed";
      case JobStatus::Deadlocked:
        return "deadlocked";
      case JobStatus::Skipped:
        return "skipped";
    }
    return "?";
}

bool
tryJobStatusFromName(const std::string &name, JobStatus &out)
{
    for (JobStatus s : {JobStatus::Ok, JobStatus::Failed,
                        JobStatus::Deadlocked, JobStatus::Skipped}) {
        if (name == jobStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

void
writeJson(std::ostream &os, const RunStats &stats)
{
    writeObject(os, [&](JsonObject &obj) { writeFields(obj, {}, stats); });
}

void
writeJson(std::ostream &os, const std::vector<RunStats> &runs)
{
    os << "[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i)
            os << ",";
        writeJson(os, runs[i]);
    }
    os << "]";
}

std::string
toJson(const RunStats &stats)
{
    std::ostringstream oss;
    writeJson(oss, stats);
    return oss.str();
}

RunStats
fromJson(const std::string &json)
{
    RunStats stats;
    std::string error;
    if (!tryFromJson(json, stats, &error))
        fatal(error);
    return stats;
}

bool
tryFromJson(const std::string &json, RunStats &out, std::string *error)
{
    return tryParse(
        [&] {
            JsonReader reader(json);
            out = parseRun(reader);
        },
        error);
}

void
writeJson(std::ostream &os, const JobRecord &record)
{
    // record_* first so a human (or grep) sees the outcome before the
    // stats body. The error/deadlock strings may span lines; our reader
    // accepts raw newlines inside strings (this is a private round-trip
    // format, not interchange JSON).
    writeObject(os, [&](JsonObject &obj) {
        obj.field("record_schema", record.schema);
        obj.field("record_status",
                  std::string(jobStatusName(record.status)));
        obj.field("record_error", record.error);
        obj.field("record_deadlock", record.deadlock);
        obj.field("record_attempts", record.attempts);
        writeFields(obj, {}, record.stats);
    });
}

bool
tryRecordFromJson(const std::string &json, JobRecord &out,
                  std::string *error)
{
    return tryParse(
        [&] {
            JobRecord record;
            bool saw_schema = false, saw_status = false;
            JsonReader reader(json);
            reader.parseObject([&](const std::string &key) {
                if (key == "record_schema") {
                    record.schema = readCount<unsigned>(reader);
                    saw_schema = true;
                } else if (key == "record_status") {
                    const std::string name = reader.parseString();
                    if (!tryJobStatusFromName(name, record.status))
                        parseFail("stats JSON: unknown record status '",
                                  name, "'");
                    saw_status = true;
                } else if (key == "record_error") {
                    record.error = reader.parseString();
                } else if (key == "record_deadlock") {
                    record.deadlock = reader.parseString();
                } else if (key == "record_attempts") {
                    record.attempts = readCount<unsigned>(reader);
                } else if (!readField(record.stats, key, reader)) {
                    reader.skipValue();
                }
            });
            if (!saw_schema || !saw_status) {
                parseFail("stats JSON: not a job record (pre-watchdog "
                          "cache entry?)");
            }
            out = std::move(record);
        },
        error);
}

std::vector<RunStats>
runsFromJson(const std::string &json)
{
    std::vector<RunStats> runs;
    std::string error;
    if (!tryParse(
            [&] {
                JsonReader reader(json);
                reader.parseList('[', ']', [&] {
                    runs.push_back(parseRun(reader));
                });
            },
            &error))
        fatal(error);
    return runs;
}

} // namespace regless::sim
