/**
 * @file
 * The run protocol and the artifact writer shared by every bench that
 * writes a BENCH_*.json.
 *
 * Protocol (runRounds): one untimed round runs every variant once,
 * then each timed round runs them all in rotating order -- round k
 * starts at variant k -- so no variant always runs first or cold.
 * Every run's simulated outcome is checked against the first run's.
 * Per variant, the result is the median, min and max of the seconds
 * each run measured, and the median of per-round ratios to another
 * variant (by default variant 0, the reference): a noise burst on a
 * shared host lands on a whole round and mostly cancels in its ratios.
 *
 * Writer (Report): a bench builds each result row once, as fields.
 * `table` prints the fields that name a column through Table and
 * keeps every field for the artifact; `write` saves the artifact,
 * one table row a line, with one `env` object (host cores, compiler,
 * build type, git commit) in front.
 */

#ifndef TRANSPUTER_BENCH_REPORT_HH
#define TRANSPUTER_BENCH_REPORT_HH

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util.hh"

// bench/CMakeLists.txt passes the build's own stamp
#ifndef TRANSPUTER_BENCH_COMPILER
#define TRANSPUTER_BENCH_COMPILER "unknown"
#endif
#ifndef TRANSPUTER_BENCH_BUILD_TYPE
#define TRANSPUTER_BENCH_BUILD_TYPE "unknown"
#endif

namespace transputer::bench
{

/** Process CPU seconds over all threads: the cost of a one-thread
 *  run, blind to the time the host gives other processes. */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Monotonic wall-clock seconds: the cost of a multi-threaded run. */
inline double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
medianOf(std::vector<double> s)
{
    std::sort(s.begin(), s.end());
    const size_t n = s.size();
    return n == 0 ? 0.0
                  : n % 2 ? s[n / 2]
                          : (s[n / 2 - 1] + s[n / 2]) / 2.0;
}

/** Median, least and greatest value of a sample. */
struct Spread
{
    double median = 0, min = 0, max = 0;

    /** (max - min) / median: how far apart the runs fell. */
    double
    relative() const
    {
        return median ? (max - min) / median : 0.0;
    }
};

inline Spread
spreadOf(const std::vector<double> &s)
{
    if (s.empty())
        return {};
    const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
    return {medianOf(s), *lo, *hi};
}

/** The timed runs of every variant; a Sample carries the `seconds`
 *  its run measured. */
template <typename Sample>
struct Rounds
{
    std::vector<std::vector<Sample>> runs; ///< [variant][round]
    bool identical = true; ///< every run simulated the first run's outcome

    std::vector<double>
    seconds(size_t v) const
    {
        std::vector<double> s;
        for (const Sample &r : runs[v])
            s.push_back(r.seconds);
        return s;
    }

    Spread time(size_t v) const { return spreadOf(seconds(v)); }

    /** Per round, `ref`'s time over v's: v's speedup over `ref`. */
    std::vector<double>
    ratios(size_t v, size_t ref = 0) const
    {
        std::vector<double> s;
        for (size_t k = 0; k < runs[v].size(); ++k)
            s.push_back(runs[ref][k].seconds / runs[v][k].seconds);
        return s;
    }

    double
    ratio(size_t v, size_t ref = 0) const
    {
        return medianOf(ratios(v, ref));
    }
};

/**
 * Run `variants` variants for one untimed and `rounds` timed rounds.
 * `run(v)` runs variant v once and returns its Sample; `same(a, b)`
 * says whether two runs simulated the same outcome.
 */
template <typename Run, typename Same>
auto
runRounds(size_t variants, int rounds, Run run, Same same)
{
    using Sample = decltype(run(size_t{0}));
    Rounds<Sample> out;
    out.runs.resize(variants);
    std::optional<Sample> first;
    for (int k = -1; k < rounds; ++k) {
        for (size_t i = 0; i < variants; ++i) {
            const size_t v = (std::max(k, 0) + i) % variants;
            Sample s = run(v);
            if (!first)
                first = s;
            else if (!same(*first, s))
                out.identical = false;
            if (k >= 0)
                out.runs[v].push_back(std::move(s));
        }
    }
    return out;
}

/** One result row: fields in order, some of them table columns. */
struct Row
{
    struct Field
    {
        std::string head, key; ///< head: the table column, if any
        std::string json, cell;
    };
    std::vector<Field> fields;

    /** A field printed under `head` and written as `key`.  A nested
     *  Row's cell is its first field's. */
    template <typename T>
    Row &
    col(const std::string &head, const std::string &key, const T &v)
    {
        std::string json, cell;
        if constexpr (std::is_same_v<T, bool>) {
            json = v ? "true" : "false";
            cell = v ? "yes" : "NO";
        } else if constexpr (std::is_arithmetic_v<T>) {
            std::ostringstream os;
            os << v;
            cell = os.str();
            json = std::isfinite(static_cast<double>(v)) ? cell : "null";
        } else if constexpr (std::is_same_v<T, Row>) {
            json = v.json();
            cell = v.fields.empty() ? "" : v.fields[0].cell;
        } else if constexpr (std::is_same_v<T, std::vector<Row>>) {
            json = list(v);
        } else {
            cell = v;
            json = quote(cell);
        }
        fields.push_back({head, key, json, cell});
        return *this;
    }

    /** A field written to the artifact only. */
    template <typename T>
    Row &
    add(const std::string &key, const T &v)
    {
        return col("", key, v);
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (const Field &f : fields)
            s += (s.size() > 1 ? ", " : "") + quote(f.key) + ": " +
                 f.json;
        return s + "}";
    }

    /** `rows` as a JSON array, inline or one item a line. */
    static std::string
    list(const std::vector<Row> &rows, bool lines = false)
    {
        std::string s = lines ? "[\n    " : "[";
        for (size_t i = 0; i < rows.size(); ++i)
            s += (i ? lines ? ",\n    " : ", " : "") + rows[i].json();
        return s + (lines ? "\n  ]" : "]");
    }

    static std::string
    quote(const std::string &s)
    {
        std::string q = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return q + "\"";
    }
};

/** A bench's artifact: its top-level fields, tables among them. */
struct Report : Row
{
    /** Print `rows`' columns as a table; keep the rows as `key`. */
    void
    table(const std::string &key, const std::vector<Row> &rows)
    {
        std::vector<std::vector<std::string>> cells(rows.size() + 1);
        std::vector<int> widths;
        for (size_t r = 0; r < rows.size(); ++r)
            for (const Field &f : rows[r].fields) {
                if (f.head.empty())
                    continue;
                if (r == 0)
                    cells[0].push_back(f.head);
                cells[r + 1].push_back(f.cell);
                const size_t c = cells[r + 1].size() - 1;
                widths.resize(std::max(widths.size(), c + 1));
                widths[c] = std::max<int>(
                    {widths[c], static_cast<int>(f.head.size()),
                     static_cast<int>(f.cell.size())});
            }
        Table t(widths);
        for (size_t r = 0; r < cells.size(); ++r) {
            t.row(cells[r]);
            if (r == 0 || r + 1 == cells.size())
                t.rule();
        }
        fields.push_back({"", key, list(rows, true), ""});
    }

    /** The checkout's commit ("-dirty" with uncommitted changes), or
     *  "unknown" outside a git checkout. */
    static std::string
    gitRev()
    {
        std::string rev;
        if (FILE *p = popen("git describe --always --dirty --abbrev=40 "
                            "--exclude='*' 2>/dev/null",
                            "r")) {
            char buf[64];
            while (fgets(buf, sizeof buf, p))
                rev += buf;
            pclose(p);
        }
        while (!rev.empty() && std::isspace(
                                   static_cast<unsigned char>(rev.back())))
            rev.pop_back();
        return rev.empty() ? "unknown" : rev;
    }

    /** Write the artifact to `path`, `env` first. */
    void
    write(const std::string &path) const
    {
        Row env;
        env.add("hardware_concurrency",
                std::thread::hardware_concurrency())
            .add("compiler", TRANSPUTER_BENCH_COMPILER)
            .add("build_type", TRANSPUTER_BENCH_BUILD_TYPE)
            .add("git_rev", gitRev());
        std::ofstream os(path);
        os << "{\n  \"env\": " << env.json();
        for (const Field &f : fields)
            os << ",\n  " << quote(f.key) << ": " << f.json;
        os << "\n}\n";
        std::cout << "wrote " << path << "\n";
    }
};

} // namespace transputer::bench

#endif // TRANSPUTER_BENCH_REPORT_HH
