/* _native_replay: the compiled replay kernel.
 *
 * A C port of the scalar per-cycle loop (repro/uarch/engine/scalar.py).
 * The whole machine — fetch queue, rename, issue queue, ROB, caches,
 * branch predictor, event-driven sampling — lives in flat C arrays; the
 * only Python crossings on the hot path are the policy hook (absent for
 * the baseline/nonempty policies, and for hints under the stock software
 * policy, whose rule the kernel applies itself).  The trace's one window
 * of columns is read in place.  A program with hint NOOPs replays its
 * stripped program's trace with a hint-run map, and fetch expands the
 * hints (fetch_expanding).
 *
 * Bit-identity contract: statistics must be byte-identical to the scalar
 * kernel for every (trace, policy, config, warm-up) combination.  Every stage below mirrors the scalar stage line by line;
 * a semantic change there must be mirrored here (tests/test_engines.py
 * enforces the equivalence).
 *
 * Time base: the scalar kernel rebases every in-flight cycle value when
 * warm-up ends (its clock restarts at zero).  This port instead runs on
 * an absolute cycle counter and reports `abs_cycle - base`, flipping
 * `base` at the warm-up boundary — no rebase walk, identical arithmetic.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Python-exact integer helpers (floor division / modulo).             */
/* ------------------------------------------------------------------ */

static inline int64_t floordiv_ll(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q--;
    return q;
}

static inline int64_t mod_ll(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

/* Cache and predictor indexing divides by a geometry fixed per run.  A
 * power-of-two divisor (table 1 has only those) is a shift or a mask,
 * which equal Python's floor division and modulo for every sign; any
 * other divisor takes the exact division path above.  `mask` is n - 1
 * for a power of two n, else -1; `shift` is log2 n, else -1. */
static inline int64_t pow2_mask(int64_t n) {
    return (n > 0 && !(n & (n - 1))) ? n - 1 : -1;
}

static inline int pow2_shift(int64_t n) {
    return pow2_mask(n) >= 0 ? __builtin_ctzll((unsigned long long)n) : -1;
}

static inline int64_t index_mod(int64_t a, int64_t n, int64_t mask) {
    return mask >= 0 ? (a & mask) : mod_ll(a, n);
}

static inline int64_t index_div(int64_t a, int64_t n, int shift) {
    return shift >= 0 ? (a >> shift) : floordiv_ll(a, n);
}

#define IQTAG_NONE INT64_MIN
#define LINE_NONE INT64_MIN

/* ------------------------------------------------------------------ */
/* Statistics (mirrors repro.uarch.stats.SimulationStats counters).    */
/* ------------------------------------------------------------------ */

#define STAT_FIELDS(X) \
    X(committed_instructions) \
    X(committed_micro_ops) \
    X(fetched_instructions) \
    X(dispatched_instructions) \
    X(issued_instructions) \
    X(hint_noops_fetched) \
    X(hint_noops_stripped) \
    X(tagged_instructions_seen) \
    X(branches) \
    X(branch_mispredicts) \
    X(ras_mispredicts) \
    X(l1i_accesses) \
    X(l1i_misses) \
    X(l1d_accesses) \
    X(l1d_misses) \
    X(l2_accesses) \
    X(l2_misses) \
    X(iq_occupancy_sum) \
    X(iq_waiting_operand_sum) \
    X(iq_banks_on_sum) \
    X(iq_broadcasts) \
    X(iq_cmp_full) \
    X(iq_cmp_gated) \
    X(iq_dispatch_writes) \
    X(iq_issue_reads) \
    X(iq_dispatch_stall_cycles) \
    X(iq_full_stall_cycles) \
    X(rf_reads) \
    X(rf_writes) \
    X(rf_live_regs_sum) \
    X(rf_banks_on_sum) \
    X(rf_inflight_sum) \
    X(sampled_cycles)

typedef struct {
#define X(name) int64_t name;
    STAT_FIELDS(X)
#undef X
} StatBlock;

/* ------------------------------------------------------------------ */
/* Set-associative cache (LRU-at-front rows, exact list semantics).    */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t sets, set_mask;
    int64_t assoc;
    int64_t line_bytes;
    int line_shift;
    int64_t *lines;  /* sets * (assoc + 1), MRU at index 0 */
    int32_t *count;
} Cache;

static int cache_init(Cache *c, int64_t sets, int64_t assoc, int64_t line_bytes) {
    c->sets = sets;
    c->set_mask = pow2_mask(sets);
    c->assoc = assoc;
    c->line_bytes = line_bytes;
    c->line_shift = pow2_shift(line_bytes);
    c->lines = (int64_t *)malloc((size_t)(sets * (assoc + 1)) * sizeof(int64_t));
    c->count = (int32_t *)calloc((size_t)sets, sizeof(int32_t));
    return (c->lines && c->count) ? 0 : -1;
}

static void cache_free(Cache *c) {
    free(c->lines);
    free(c->count);
}

static inline int64_t cache_line(const Cache *c, int64_t addr) {
    return index_div(addr, c->line_bytes, c->line_shift);
}

/* SetAssociativeCache.access: hit -> move-to-front only when not
 * already at the front; miss -> insert at front, trim past assoc. */
static int cache_access(Cache *c, int64_t addr) {
    int64_t line = cache_line(c, addr);
    int64_t si = index_mod(line, c->sets, c->set_mask);
    int64_t *row = c->lines + si * (c->assoc + 1);
    int32_t n = c->count[si];
    for (int32_t i = 0; i < n; i++) {
        if (row[i] == line) {
            if (i) {
                memmove(row + 1, row, (size_t)i * sizeof(int64_t));
                row[0] = line;
            }
            return 1;
        }
    }
    int32_t kept = (int64_t)n < c->assoc ? n : (int32_t)(c->assoc - 1);
    memmove(row + 1, row, (size_t)kept * sizeof(int64_t));
    row[0] = line;
    c->count[si] = kept + 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Hybrid branch predictor + BTB + RAS.                                */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t gshare_n, bimodal_n, selector_n;
    int64_t gshare_mask, bimodal_mask, selector_mask;
    uint8_t *gshare, *bimodal, *selector;
    int64_t history, hist_mask;
    int64_t btb_sets, btb_mask, btb_assoc;
    int64_t *btb_tag, *btb_tgt;  /* btb_sets * btb_assoc, MRU at 0 */
    int32_t *btb_len;
    int64_t ras_entries;
    int64_t *ras;
    int64_t ras_n;
} Pred;

static int pred_init(Pred *p, int64_t gn, int64_t bn, int64_t sn,
                     int64_t hist_bits, int64_t btb_sets, int64_t btb_assoc,
                     int64_t ras_entries) {
    p->gshare_n = gn;
    p->bimodal_n = bn;
    p->selector_n = sn;
    p->gshare_mask = pow2_mask(gn);
    p->bimodal_mask = pow2_mask(bn);
    p->selector_mask = pow2_mask(sn);
    p->gshare = (uint8_t *)malloc((size_t)gn);
    p->bimodal = (uint8_t *)malloc((size_t)bn);
    p->selector = (uint8_t *)malloc((size_t)sn);
    if (!p->gshare || !p->bimodal || !p->selector) return -1;
    memset(p->gshare, 1, (size_t)gn);
    memset(p->bimodal, 1, (size_t)bn);
    memset(p->selector, 1, (size_t)sn);
    p->history = 0;
    p->hist_mask = (1LL << hist_bits) - 1;
    p->btb_sets = btb_sets;
    p->btb_mask = pow2_mask(btb_sets);
    p->btb_assoc = btb_assoc;
    p->btb_tag = (int64_t *)malloc((size_t)(btb_sets * btb_assoc) * sizeof(int64_t));
    p->btb_tgt = (int64_t *)malloc((size_t)(btb_sets * btb_assoc) * sizeof(int64_t));
    p->btb_len = (int32_t *)calloc((size_t)btb_sets, sizeof(int32_t));
    if (!p->btb_tag || !p->btb_tgt || !p->btb_len) return -1;
    p->ras_entries = ras_entries;
    p->ras = (int64_t *)malloc((size_t)(ras_entries > 0 ? ras_entries : 1) * sizeof(int64_t));
    if (!p->ras) return -1;
    p->ras_n = 0;
    return 0;
}

static void pred_free(Pred *p) {
    free(p->gshare);
    free(p->bimodal);
    free(p->selector);
    free(p->btb_tag);
    free(p->btb_tgt);
    free(p->btb_len);
    free(p->ras);
}

static inline uint8_t cupd(uint8_t counter, int taken) {
    if (taken) return counter >= 3 ? 3 : counter + 1;
    return counter == 0 ? 0 : counter - 1;
}

static void btb_insert(Pred *p, int64_t pc, int64_t target) {
    int64_t set = index_mod(pc, p->btb_sets, p->btb_mask);
    int64_t *tags = p->btb_tag + set * p->btb_assoc;
    int64_t *tgts = p->btb_tgt + set * p->btb_assoc;
    int32_t n = p->btb_len[set];
    for (int32_t i = 0; i < n; i++) {
        if (tags[i] == pc) {
            memmove(tags + i, tags + i + 1, (size_t)(n - i - 1) * sizeof(int64_t));
            memmove(tgts + i, tgts + i + 1, (size_t)(n - i - 1) * sizeof(int64_t));
            n--;
            break;
        }
    }
    int32_t kept = (int64_t)n < p->btb_assoc ? n : (int32_t)(p->btb_assoc - 1);
    memmove(tags + 1, tags, (size_t)kept * sizeof(int64_t));
    memmove(tgts + 1, tgts, (size_t)kept * sizeof(int64_t));
    tags[0] = pc;
    tgts[0] = target;
    p->btb_len[set] = kept + 1;
}

/* HybridBranchPredictor.predict_and_update: returns `correct`. */
static int pred_branch(Pred *p, int64_t pc, int taken, int64_t target) {
    int64_t gi = index_mod(pc ^ p->history, p->gshare_n, p->gshare_mask);
    int64_t bi = index_mod(pc, p->bimodal_n, p->bimodal_mask);
    int64_t si = index_mod(pc, p->selector_n, p->selector_mask);
    int g = p->gshare[gi] >= 2;
    int b = p->bimodal[bi] >= 2;
    int pred = (p->selector[si] >= 2) ? g : b;
    int btb_hit = 1;
    if (taken) {
        int64_t set = index_mod(pc, p->btb_sets, p->btb_mask);
        int64_t *tags = p->btb_tag + set * p->btb_assoc;
        int64_t *tgts = p->btb_tgt + set * p->btb_assoc;
        int32_t n = p->btb_len[set];
        btb_hit = 0;
        for (int32_t i = 0; i < n; i++) {
            if (tags[i] == pc) {
                btb_hit = tgts[i] == target;
                break;
            }
        }
    }
    int correct = (pred == taken) && (!taken || btb_hit);
    p->gshare[gi] = cupd(p->gshare[gi], taken);
    p->bimodal[bi] = cupd(p->bimodal[bi], taken);
    if (g != b) p->selector[si] = cupd(p->selector[si], g == taken);
    p->history = ((p->history << 1) | (taken ? 1 : 0)) & p->hist_mask;
    if (taken) btb_insert(p, pc, target);
    return correct;
}

static void ras_push(Pred *p, int64_t return_pc) {
    if (p->ras_n == p->ras_entries) {
        memmove(p->ras, p->ras + 1, (size_t)(p->ras_n - 1) * sizeof(int64_t));
        p->ras_n--;
    }
    p->ras[p->ras_n++] = return_pc;
}

static int ras_predict(Pred *p, int64_t actual_return_pc) {
    if (p->ras_n == 0) return 0;
    return p->ras[--p->ras_n] == actual_return_pc;
}

/* ------------------------------------------------------------------ */
/* Banked physical register file (multiword free bitmask).             */
/* ------------------------------------------------------------------ */

typedef struct {
    int32_t nphys, narch, nbanks, nwords;
    uint64_t *mask;
    int32_t *rename_map;
    int64_t free_count, allocated;
    int32_t *bank_of;  /* physical register -> bank */
    int32_t *bank_counts;
    int64_t active_banks;
} RegFile;

static int rf_init(RegFile *f, int32_t nphys, int32_t narch, int32_t bank_size) {
    f->nphys = nphys;
    f->narch = narch;
    f->nbanks = (nphys + bank_size - 1) / bank_size;
    f->nwords = (nphys + 63) / 64;
    f->mask = (uint64_t *)calloc((size_t)f->nwords, sizeof(uint64_t));
    f->rename_map = (int32_t *)malloc((size_t)narch * sizeof(int32_t));
    f->bank_of = (int32_t *)malloc((size_t)(nphys ? nphys : 1) * sizeof(int32_t));
    f->bank_counts = (int32_t *)calloc((size_t)f->nbanks, sizeof(int32_t));
    if (!f->mask || !f->rename_map || !f->bank_of || !f->bank_counts) return -1;
    for (int32_t i = 0; i < nphys; i++) f->bank_of[i] = i / bank_size;
    for (int32_t i = narch; i < nphys; i++)
        f->mask[i >> 6] |= 1ULL << (i & 63);
    for (int32_t i = 0; i < narch; i++) {
        f->rename_map[i] = i;
        f->bank_counts[f->bank_of[i]]++;
    }
    f->free_count = nphys - narch;
    f->allocated = narch;
    f->active_banks = 0;
    for (int32_t bnk = 0; bnk < f->nbanks; bnk++)
        if (f->bank_counts[bnk] > 0) f->active_banks++;
    return 0;
}

static void rf_free_struct(RegFile *f) {
    free(f->mask);
    free(f->rename_map);
    free(f->bank_of);
    free(f->bank_counts);
}

/* PhysicalRegisterFile.allocate: lowest free register first (callers
 * check free_count, so a set bit exists). */
static inline void rf_alloc(RegFile *f, int arch, int32_t *out_new, int32_t *out_prev) {
    int32_t wi = 0;
    while (f->mask[wi] == 0) wi++;
    uint64_t w = f->mask[wi];
    f->mask[wi] = w & (w - 1);
    int32_t np = wi * 64 + __builtin_ctzll(w);
    *out_prev = f->rename_map[arch];
    f->rename_map[arch] = np;
    f->allocated++;
    f->free_count--;
    if (f->bank_counts[f->bank_of[np]]++ == 0) f->active_banks++;
    *out_new = np;
}

static inline void rf_release(RegFile *f, int32_t phys) {
    f->mask[phys >> 6] |= 1ULL << (phys & 63);
    f->allocated--;
    f->free_count++;
    if (--f->bank_counts[f->bank_of[phys]] == 0) f->active_banks--;
}

/* ------------------------------------------------------------------ */
/* The static table and the trace window.                              */
/* ------------------------------------------------------------------ */

/* One static instruction's pre-decoded attributes: a row of the
 * per-program table (StaticTable.packed in repro/uarch/trace.py), found
 * for a trace entry at index (pc - table_base) >> 2. */
typedef struct {
    int64_t iq_tag;     /* IQTAG_NONE = untagged */
    int64_t hint_value; /* valid at F_HINT rows */
    uint8_t flags, latency, fu, pad;
    uint8_t nspec[4];   /* int srcs, fp srcs, int dests, fp dests */
    uint8_t regs[16];   /* four architectural indices per category */
} StaticRow;

_Static_assert(sizeof(StaticRow) == 40, "StaticRow must match trace._NATIVE_ROW");

/* One entry of a hint-run map (HintRuns.packed in repro/uarch/trace.py),
 * found for a stripped-trace entry at index (pc - table_base) >> 2: the
 * entry's own table row, and the hints before it on sequential arrival
 * and after a taken transfer, the table rows just below its own. */
typedef struct {
    int64_t row, sequential, taken;
} HintRun;

_Static_assert(sizeof(HintRun) == 24, "HintRun must match HintRuns.packed");

/* The trace's one window of columns, read in place through the buffer
 * protocol (the views pin the Python buffers until the machine is
 * freed). */
typedef struct {
    int64_t length;
    const int64_t *pc;
    const int64_t *next_pc;
    const int64_t *mem;
    const uint8_t *taken;
    Py_buffer views[4];
    int n_views;
} Window;

static const char *const COLUMN_NAMES[4] = {"pc", "next_pc", "mem", "taken"};

static void free_window(Window *w) {
    if (!w) return;
    for (int i = 0; i < w->n_views; i++) PyBuffer_Release(&w->views[i]);
    free(w);
}

/* Wrap a (pc, next_pc, mem, taken) tuple: three contiguous, aligned
 * int64 ('q') columns and one byte ('B') column of one length. */
static Window *lower_window(PyObject *columns) {
    if (!PyTuple_Check(columns) || PyTuple_GET_SIZE(columns) != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "trace window must be a (pc, next_pc, mem, taken) tuple");
        return NULL;
    }
    Window *w = (Window *)calloc(1, sizeof(Window));
    if (!w) {
        PyErr_NoMemory();
        return NULL;
    }
    for (int i = 0; i < 4; i++) {
        Py_buffer *view = &w->views[i];
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(columns, i), view,
                               PyBUF_ND | PyBUF_FORMAT) < 0)
            goto fail;
        w->n_views++;
        Py_ssize_t itemsize = i < 3 ? 8 : 1;
        const char *format = i < 3 ? "q" : "B";
        if (view->ndim != 1 || view->itemsize != itemsize || !view->format ||
            strcmp(view->format, format) != 0 ||
            (view->len && (uintptr_t)view->buf % (uintptr_t)itemsize)) {
            PyErr_Format(PyExc_TypeError,
                         "trace column %s must be a contiguous, aligned '%s' buffer",
                         COLUMN_NAMES[i], format);
            goto fail;
        }
        int64_t n = (int64_t)(view->len / itemsize);
        if (i == 0) {
            w->length = n;
        } else if (n != w->length) {
            PyErr_Format(PyExc_ValueError,
                         "trace column %s has %lld entries, pc has %lld",
                         COLUMN_NAMES[i], (long long)n, (long long)w->length);
            goto fail;
        }
    }
    w->pc = (const int64_t *)w->views[0].buf;
    w->next_pc = (const int64_t *)w->views[1].buf;
    w->mem = (const int64_t *)w->views[2].buf;
    w->taken = (const uint8_t *)w->views[3].buf;
    return w;

fail:
    free_window(w);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* The machine.                                                        */
/* ------------------------------------------------------------------ */

typedef struct {
    int32_t *items;
    int32_t n, cap;
} Bucket;

typedef struct {
    int64_t age;
    int32_t slot;
} ReadyEnt;

typedef struct {
    int32_t *slots;
    int32_t n, cap;
} Cons;

typedef struct {
    /* Config. */
    int fetch_width, dispatch_width, issue_width, commit_width;
    int64_t fq_cap;
    int64_t decode_latency, mispredict_penalty;
    int64_t rob_cap;
    int64_t iq_cap, iq_bank_size, iq_num_banks;
    int32_t int_phys, fp_offset;
    int64_t l1i_hit_lat, l1i_l2, l1i_mem;
    int64_t l1d_hit_lat, l1d_l2, l1d_mem;
    int64_t cmp_full_per_broadcast;
    int F_HINT, F_NOP, F_BRANCH, F_CALL, F_RET, F_LOAD, F_STORE, F_CONTROL;
    int uses_hints, iq_bank_gating, rf_bank_gating;
    /* The stock hint rule (ResizingPolicy.hint_floor): when set, a hint
     * of value v applies new_head <- tail and max_new_range <-
     * max(1, max(hint_floor, v)) here instead of calling the hook. */
    int stock_hints;
    int64_t hint_floor;
    int64_t hints_applied, last_hint_value;
    int has_max_cycles;
    int64_t warmup_instructions, max_cycles;
    /* The policy's next wake cycle in the reported clock: on_cycle_end
     * runs at the end of a cycle once abs_cycle - base reaches it. */
    int64_t wake;

    /* The static table (an owned, validated copy). */
    StaticRow *rows;
    int64_t n_rows, table_base;

    /* The hint-run map (an owned, validated copy; NULL without one), its
     * tail run and budget, and the expansion's fetch state: hints left
     * before the entry at trace_pos or in the tail (-1: its run is not
     * known yet), the own row of the next one and of that entry, whether
     * the entry before it was a taken transfer other than a return,
     * whether the tail has started, and the entries fetched. */
    HintRun *hmap;
    int64_t n_hmap, tail_row, tail_count, budget;
    int64_t pending, hint_row, entry_row, fetched_total;
    int after_taken, in_tail;

    /* Components. */
    Cache l1i, l1d, l2;
    Pred pred;
    RegFile rf_int, rf_fp;
    int n_fu;
    int64_t *fu_limits, *fu_used, *fu_issues;
    int64_t structural_stalls;

    /* Issue queue. */
    uint8_t *iq_valid;
    int32_t *iq_rob;
    int64_t *iq_ready_cycle;
    int64_t *iq_age_arr;
    uint8_t *iq_fu;
    uint8_t *iq_nwait;
    int32_t *iq_wait;  /* iq_cap * 8 */
    int64_t iq_head, iq_tail, iq_new_head, iq_count, iq_span;
    int64_t iq_next_age, iq_waiting, iq_active_banks;
    int32_t *iq_bank_of;  /* slot -> bank */
    int32_t *iq_bank_counts;
    int64_t iq_global_limit, iq_max_new_range;  /* -1 = None */

    /* ROB (flat arrays). */
    int64_t *rob_dyn;
    uint8_t *rob_state;
    uint8_t *rob_flags;
    uint8_t *rob_latency;
    int64_t *rob_mem;
    uint8_t *rob_ndest, *rob_nsrc, *rob_nfreed;
    int32_t *rob_dest, *rob_src, *rob_freed;  /* rob_cap * 8 each */
    int64_t rob_head, rob_tail, rob_count;
    int64_t rob_limit;  /* -1 = None */

    /* Rename scoreboard + wakeup. */
    uint8_t *tag_ready;
    Cons *cons;  /* per physical tag */
    ReadyEnt *ready;
    int64_t ready_n;

    /* Completion calendar ring. */
    Bucket *ring;
    int64_t ring_size, ring_mask;

    /* Fetch queue ring: trace index, decode-ready cycle, static row. */
    int64_t *fq_idx, *fq_ready;
    int32_t *fq_row;
    int64_t fq_head, fq_n;

    /* Front end / trace. */
    Window *win;
    int64_t trace_pos;
    int trace_exhausted;
    int64_t blocked_seq;  /* -1 = None */
    int64_t fetch_resume;
    int64_t last_fetch_line;  /* LINE_NONE = None */

    /* Time & measurement. */
    int64_t abs_cycle, base;
    int warm;
    int64_t committed_total;

    /* Event-driven sampling. */
    int64_t snap[6];
    int64_t sample_anchor;
    int sample_dirty;

    /* Python crossing. */
    PyObject *hook;

    StatBlock st;
} Machine;

/* ------------------------------------------------------------------ */
/* Small machine helpers.                                              */
/* ------------------------------------------------------------------ */

static inline void fq_push(Machine *m, int64_t index, int64_t decode_ready,
                           int32_t row) {
    int64_t pos = m->fq_head + m->fq_n;
    if (pos >= m->fq_cap) pos -= m->fq_cap;
    m->fq_idx[pos] = index;
    m->fq_ready[pos] = decode_ready;
    m->fq_row[pos] = row;
    m->fq_n++;
}

static inline void fq_pop(Machine *m) {
    m->fq_head++;
    if (m->fq_head == m->fq_cap) m->fq_head = 0;
    m->fq_n--;
}

static int cons_append(Machine *m, int32_t tag, int32_t slot) {
    Cons *c = &m->cons[tag];
    if (c->n == c->cap) {
        int32_t ncap = c->cap ? c->cap * 2 : 8;
        int32_t *ns = (int32_t *)realloc(c->slots, (size_t)ncap * sizeof(int32_t));
        if (!ns) {
            PyErr_NoMemory();
            return -1;
        }
        c->slots = ns;
        c->cap = ncap;
    }
    c->slots[c->n++] = slot;
    return 0;
}

/* Insert into the age-sorted ready array (binary insertion). */
static void ready_insert(Machine *m, int64_t age, int32_t slot) {
    int64_t lo = 0, hi = m->ready_n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (m->ready[mid].age < age) lo = mid + 1;
        else hi = mid;
    }
    memmove(m->ready + lo + 1, m->ready + lo,
            (size_t)(m->ready_n - lo) * sizeof(ReadyEnt));
    m->ready[lo].age = age;
    m->ready[lo].slot = slot;
    m->ready_n++;
}

static int ring_append(Machine *m, int64_t finish, int32_t rob_index) {
    Bucket *b = &m->ring[finish & m->ring_mask];
    if (b->n == b->cap) {
        int32_t ncap = b->cap ? b->cap * 2 : 8;
        int32_t *ni = (int32_t *)realloc(b->items, (size_t)ncap * sizeof(int32_t));
        if (!ni) {
            PyErr_NoMemory();
            return -1;
        }
        b->items = ni;
        b->cap = ncap;
    }
    b->items[b->n++] = rob_index;
    return 0;
}

/* BankedIssueQueue._advance_pointers, exactly. */
static void iq_advance(Machine *m) {
    int64_t cap = m->iq_cap;
    int64_t head = m->iq_head, span = m->iq_span;
    while (span > 0 && !m->iq_valid[head]) {
        head++;
        if (head == cap) head = 0;
        span--;
    }
    m->iq_head = head;
    m->iq_span = span;
    if (span == 0) {
        m->iq_head = m->iq_tail;
        m->iq_new_head = m->iq_tail;
        return;
    }
    int64_t nh = m->iq_new_head;
    /* Ring distance: both pointers lie in [0, cap). */
    int64_t ahead = nh - head;
    if (ahead < 0) ahead += cap;
    if (ahead > span) nh = head;
    int64_t tail = m->iq_tail;
    while (nh != tail && !m->iq_valid[nh]) {
        nh++;
        if (nh == cap) nh = 0;
    }
    m->iq_new_head = nh;
}

/* The row of `pc` in a layout of `n` rows from table_base (the table's,
 * or the stripped layout's for a hint map), or -1 with ValueError set: a
 * pc that is misaligned or outside the layout is never read out of
 * bounds.  The offset is unsigned, so a pc below the base wraps past
 * every row. */
static inline int64_t layout_row(const Machine *m, int64_t pc, int64_t n,
                                 const char *layout) {
    uint64_t offset = (uint64_t)pc - (uint64_t)m->table_base;
    if (!(offset & 3) && (offset >> 2) < (uint64_t)n) return (int64_t)(offset >> 2);
    PyErr_Format(PyExc_ValueError,
                 "trace pc %#llx names no static instruction (%s base %#llx, "
                 "%lld rows)",
                 (unsigned long long)pc, layout, (unsigned long long)m->table_base,
                 (long long)n);
    return -1;
}

/* Policy hook crossing.  kind: 0 = on_hint, 1 = on_cycle_end,
 * 2 = on_measurement_start.  The Python side syncs the view objects
 * (tail, new_head and max_new_range, which the stock hint rule moves
 * without a crossing), dispatches to the policy, and returns the five
 * policy-owned values (new_head, max_new_range, global_limit,
 * rob_limit, with -1 encoding None, and the next wake cycle). */
static int call_hook(Machine *m, int kind, int64_t arg) {
    PyObject *res = PyObject_CallFunction(
        m->hook, "iLLLLLL", kind, (long long)arg,
        (long long)(m->abs_cycle - m->base), (long long)m->committed_total,
        (long long)m->iq_tail, (long long)m->iq_new_head,
        (long long)m->iq_max_new_range);
    if (!res) return -1;
    long long vals[5];
    int ok = PyTuple_Check(res) && PyTuple_GET_SIZE(res) == 5;
    if (ok) {
        for (int i = 0; i < 5; i++) {
            vals[i] = PyLong_AsLongLong(PyTuple_GET_ITEM(res, i));
            if (vals[i] == -1 && PyErr_Occurred()) {
                ok = 0;
                break;
            }
        }
    }
    Py_DECREF(res);
    if (!ok) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "native hook must return a 5-tuple of ints");
        return -1;
    }
    m->iq_new_head = vals[0];
    m->iq_max_new_range = vals[1];
    m->iq_global_limit = vals[2];
    m->rob_limit = vals[3];
    m->wake = vals[4];
    return 0;
}

/* A hint at dispatch: the stock rule, counted for the policy (warm-up
 * included, as on_hint counts), or the policy's own on_hint. */
static inline int apply_hint(Machine *m, int64_t value) {
    if (!m->stock_hints) return call_hook(m, 0, value);
    int64_t entries = value > m->hint_floor ? value : m->hint_floor;
    m->iq_new_head = m->iq_tail;
    m->iq_max_new_range = entries > 1 ? entries : 1;
    m->last_hint_value = entries;
    m->hints_applied++;
    return 0;
}

/* Event-driven sampling: fold the standing snapshot, retake it. */
static void flush_sample(Machine *m) {
    int64_t pending = m->abs_cycle - m->sample_anchor;
    if (pending) {
        StatBlock *st = &m->st;
        st->sampled_cycles += pending;
        st->iq_occupancy_sum += m->snap[0] * pending;
        st->iq_waiting_operand_sum += m->snap[1] * pending;
        st->iq_banks_on_sum += m->snap[2] * pending;
        st->rf_banks_on_sum += m->snap[3] * pending;
        st->rf_live_regs_sum += m->snap[4] * pending;
        st->rf_inflight_sum += m->snap[5] * pending;
    }
    m->snap[0] = m->iq_count;
    m->snap[1] = m->iq_waiting;
    m->snap[2] = m->iq_bank_gating ? m->iq_active_banks : m->iq_num_banks;
    m->snap[3] = m->rf_bank_gating ? m->rf_int.active_banks : m->rf_int.nbanks;
    m->snap[4] = m->rf_int.allocated;
    m->snap[5] = m->rob_count;
    m->sample_anchor = m->abs_cycle;
    m->sample_dirty = 0;
}

/* Warm-up flip: zero the stats, rebase the reported clock. */
static int end_warmup(Machine *m) {
    m->warm = 1;
    memset(&m->st, 0, sizeof(StatBlock));
    int64_t shift = m->abs_cycle;
    m->base = m->abs_cycle;
    m->sample_anchor = m->abs_cycle;
    m->sample_dirty = 1;
    return call_hook(m, 2, shift);
}

/* ------------------------------------------------------------------ */
/* Commit.                                                             */
/* ------------------------------------------------------------------ */

static int commit_stage(Machine *m) {
    if (m->rob_count == 0) return 0;
    int64_t head = m->rob_head;
    if (m->rob_state[head] != 2) return 0;
    int64_t count = m->rob_count;
    int64_t committed = 0;
    int width = m->commit_width;
    int32_t fp_offset = m->fp_offset;
    for (;;) {
        int32_t ri = (int32_t)head;
        head++;
        if (head == m->rob_cap) head = 0;
        count--;
        int nf = m->rob_nfreed[ri];
        int32_t *fr = m->rob_freed + (int64_t)ri * 8;
        for (int i = 0; i < nf; i++) {
            int32_t tag = fr[i];
            if (tag >= fp_offset) rf_release(&m->rf_fp, tag - fp_offset);
            else rf_release(&m->rf_int, tag);
        }
        committed++;
        m->committed_total++;
        if (m->warm) {
            m->st.committed_instructions++;
            m->st.committed_micro_ops++;
        } else if (m->committed_total >= m->warmup_instructions) {
            if (end_warmup(m)) return -1;
        }
        if (committed >= width || count == 0) break;
        if (m->rob_state[head] != 2) break;
    }
    m->rob_head = head;
    m->rob_count = count;
    m->sample_dirty = 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Writeback.                                                          */
/* ------------------------------------------------------------------ */

static void writeback(Machine *m) {
    Bucket *b = &m->ring[m->abs_cycle & m->ring_mask];
    if (b->n == 0) return;
    int64_t broadcasts = 0, cmp_gated = 0, rf_writes = 0;
    int32_t int_phys = m->int_phys;
    for (int32_t k = 0; k < b->n; k++) {
        int32_t ri = b->items[k];
        m->rob_state[ri] = 2;
        int nd = m->rob_ndest[ri];
        int32_t *dt = m->rob_dest + (int64_t)ri * 8;
        for (int i = 0; i < nd; i++) {
            int32_t tag = dt[i];
            if (tag < int_phys) rf_writes++;
            m->tag_ready[tag] = 1;
            broadcasts++;
            /* Gated comparators sample the waiting-operand count at the
             * instant of each broadcast, before the wakeups it causes. */
            cmp_gated += m->iq_waiting;
            Cons *c = &m->cons[tag];
            int32_t cn = c->n;
            c->n = 0;
            for (int32_t j = 0; j < cn; j++) {
                int32_t slot = c->slots[j];
                if (!m->iq_valid[slot]) continue;
                int nw = m->iq_nwait[slot];
                int32_t *wt = m->iq_wait + (int64_t)slot * 8;
                for (int q = 0; q < nw; q++) {
                    if (wt[q] == tag) {
                        wt[q] = wt[nw - 1];
                        m->iq_nwait[slot] = (uint8_t)(nw - 1);
                        m->iq_waiting--;
                        if (nw == 1)
                            ready_insert(m, m->iq_age_arr[slot], slot);
                        break;
                    }
                }
            }
        }
        if (m->blocked_seq >= 0 && m->rob_dyn[ri] == m->blocked_seq) {
            m->blocked_seq = -1;
            int64_t resume = m->abs_cycle + m->mispredict_penalty;
            if (resume > m->fetch_resume) m->fetch_resume = resume;
        }
    }
    b->n = 0;
    m->sample_dirty = 1;
    if (m->warm && broadcasts) {
        m->st.rf_writes += rf_writes;
        m->st.iq_broadcasts += broadcasts;
        m->st.iq_cmp_full += broadcasts * m->cmp_full_per_broadcast;
        m->st.iq_cmp_gated += cmp_gated;
    }
}

/* ------------------------------------------------------------------ */
/* Issue / execute.                                                    */
/* ------------------------------------------------------------------ */

static int64_t mem_latency(Machine *m, int64_t addr, int flags, int64_t base_latency) {
    int l1_hit = cache_access(&m->l1d, addr);
    int l2_hit = 1;
    int64_t lat;
    if (l1_hit) {
        lat = m->l1d_hit_lat;
    } else {
        l2_hit = cache_access(&m->l2, addr);
        lat = l2_hit ? m->l1d_l2 : m->l1d_mem;
    }
    if (flags & m->F_LOAD) {
        if (m->warm) {
            m->st.l1d_accesses++;
            if (!l1_hit) {
                m->st.l1d_misses++;
                m->st.l2_accesses++;
            }
            if (!l2_hit) m->st.l2_misses++;
        }
        return base_latency + lat;
    }
    if (m->warm) m->st.l1d_accesses++;
    return base_latency;
}

static int issue_stage(Machine *m) {
    if (m->ready_n == 0) return 0;
    int64_t issued = 0;
    int64_t cycle = m->abs_cycle;
    int width = m->issue_width;
    int32_t int_phys = m->int_phys;
    int64_t fu_stalls = 0, rf_reads = 0;
    int64_t n = m->ready_n, w = 0;
    int mem_flags = m->F_LOAD | m->F_STORE;
    for (int64_t r = 0; r < n; r++) {
        if (issued >= width) {
            if (w != r)
                memmove(m->ready + w, m->ready + r,
                        (size_t)(n - r) * sizeof(ReadyEnt));
            w += n - r;
            break;
        }
        ReadyEnt e = m->ready[r];
        int32_t slot = e.slot;
        if (m->iq_ready_cycle[slot] > cycle) {
            m->ready[w++] = e;
            continue;
        }
        int fu = m->iq_fu[slot];
        if (m->fu_used[fu] >= m->fu_limits[fu]) {
            fu_stalls++;
            m->ready[w++] = e;
            continue;
        }
        m->fu_used[fu]++;
        m->fu_issues[fu]++;
        int32_t ri = m->iq_rob[slot];
        /* Inlined BankedIssueQueue.remove (entry is ready: no waiting
         * operands to deduct). */
        m->iq_valid[slot] = 0;
        m->iq_count--;
        if (--m->iq_bank_counts[m->iq_bank_of[slot]] == 0) m->iq_active_banks--;
        if (!m->iq_valid[m->iq_head] || !m->iq_valid[m->iq_new_head])
            iq_advance(m);
        m->rob_state[ri] = 1;
        issued++;
        int ns = m->rob_nsrc[ri];
        int32_t *stags = m->rob_src + (int64_t)ri * 8;
        for (int i = 0; i < ns; i++)
            if (stags[i] < int_phys) rf_reads++;
        int flags = m->rob_flags[ri];
        int64_t latency;
        if (flags & mem_flags)
            latency = mem_latency(m, m->rob_mem[ri], flags, m->rob_latency[ri]);
        else
            latency = m->rob_latency[ri];
        int64_t finish = cycle + (latency > 1 ? latency : 1);
        if (ring_append(m, finish, ri)) return -1;
    }
    m->ready_n = w;
    if (fu_stalls) m->structural_stalls += fu_stalls;
    if (issued) {
        m->sample_dirty = 1;
        if (m->warm) {
            m->st.issued_instructions += issued;
            m->st.iq_issue_reads += issued;
            m->st.rf_reads += rf_reads;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Dispatch (rename + issue-queue/ROB allocation).                     */
/* ------------------------------------------------------------------ */

static int dispatch_stage(Machine *m) {
    if (m->fq_n == 0) return 0;
    int64_t cycle = m->abs_cycle;
    if (m->fq_ready[m->fq_head] > cycle) return 0;
    const int64_t *mem = m->win->mem;
    int64_t dispatched = 0;
    int stalled_region = 0, stalled_physical = 0;
    int width = m->dispatch_width;
    int warm = m->warm;
    int uses_hints = m->uses_hints;
    /* rob_effective is hoisted once per dispatch call, like the scalar
     * kernel; the admission limits the policy can change mid-loop
     * (global_limit, max_new_range, new_head) are read fresh below. */
    int64_t rob_effective = m->rob_limit < 0 ? m->rob_cap : m->rob_limit;
    int64_t ready_cycle = cycle + 1;
    int hint_nop = m->F_HINT | m->F_NOP;
    int32_t fp_offset = m->fp_offset;
    while (dispatched < width && m->fq_n) {
        int64_t index = m->fq_idx[m->fq_head];
        if (m->fq_ready[m->fq_head] > cycle) break;
        const StaticRow *row = &m->rows[m->fq_row[m->fq_head]];
        int flags = row->flags;

        /* The paper's special NOOP: consumes a dispatch slot but never
         * reaches the issue queue. */
        if (flags & hint_nop) {
            if (flags & m->F_HINT) {
                if (uses_hints) {
                    if (apply_hint(m, row->hint_value)) return -1;
                }
                if (warm) m->st.hint_noops_stripped++;
            }
            fq_pop(m);
            dispatched++;
            continue;
        }

        /* Tag-carried hints (Extension/Improved) cost no dispatch slot. */
        if (uses_hints) {
            int64_t tag_value = row->iq_tag;
            if (tag_value != IQTAG_NONE) {
                if (apply_hint(m, tag_value)) return -1;
                if (warm) m->st.tagged_instructions_seen++;
            }
        }

        if (m->rob_count >= rob_effective) break;
        const uint8_t *spec = row->regs;
        int n_is = row->nspec[0], n_fs = row->nspec[1];
        int n_id = row->nspec[2], n_fd = row->nspec[3];
        if (m->rf_int.free_count < n_id ||
            (n_fd && m->rf_fp.free_count < n_fd))
            break;
        /* Inlined BankedIssueQueue.can_dispatch. */
        if (m->iq_span >= m->iq_cap) {
            stalled_physical = 1;
            break;
        }
        if (m->iq_global_limit >= 0 && m->iq_span >= m->iq_global_limit) {
            stalled_region = 1;
            break;
        }
        if (m->iq_max_new_range >= 0 && m->iq_span) {
            int64_t region = m->iq_tail - m->iq_new_head;
            if (region < 0) region += m->iq_cap;
            if (region >= m->iq_max_new_range) {
                stalled_region = 1;
                break;
            }
        }

        fq_pop(m);
        /* Rename: integer sources then FP sources; integer dests then
         * FP dests (tag order matters for rf_reads/rf_writes counting). */
        int32_t src_tags[8];
        int n_src = 0;
        for (int i = 0; i < n_is; i++)
            src_tags[n_src++] = m->rf_int.rename_map[spec[i]];
        for (int i = 0; i < n_fs; i++)
            src_tags[n_src++] = m->rf_fp.rename_map[spec[4 + i]] + fp_offset;
        int32_t dest_tags[8], freed[8];
        int n_dest = 0;
        for (int i = 0; i < n_id; i++) {
            int32_t np, prev;
            rf_alloc(&m->rf_int, spec[8 + i], &np, &prev);
            dest_tags[n_dest] = np;
            freed[n_dest] = prev;
            n_dest++;
            m->tag_ready[np] = 0;
        }
        for (int i = 0; i < n_fd; i++) {
            int32_t np, prev;
            rf_alloc(&m->rf_fp, spec[12 + i], &np, &prev);
            dest_tags[n_dest] = np + fp_offset;
            freed[n_dest] = prev + fp_offset;
            m->tag_ready[np + fp_offset] = 0;
            n_dest++;
        }

        /* Inlined ReorderBuffer.allocate. */
        int32_t ri = (int32_t)m->rob_tail;
        m->rob_dyn[ri] = index;
        m->rob_state[ri] = 0;
        m->rob_ndest[ri] = (uint8_t)n_dest;
        m->rob_nfreed[ri] = (uint8_t)n_dest;
        m->rob_nsrc[ri] = (uint8_t)n_src;
        memcpy(m->rob_dest + (int64_t)ri * 8, dest_tags, (size_t)n_dest * 4);
        memcpy(m->rob_freed + (int64_t)ri * 8, freed, (size_t)n_dest * 4);
        memcpy(m->rob_src + (int64_t)ri * 8, src_tags, (size_t)n_src * 4);
        m->rob_flags[ri] = (uint8_t)flags;
        m->rob_latency[ri] = row->latency;
        m->rob_mem[ri] = mem[index];
        m->rob_tail = m->rob_tail + 1 == m->rob_cap ? 0 : m->rob_tail + 1;
        m->rob_count++;

        /* Inlined BankedIssueQueue.allocate.  Waiting tags deduplicate
         * (the scalar kernel builds a set), first occurrence kept. */
        int32_t slot = (int32_t)m->iq_tail;
        int32_t *wt = m->iq_wait + (int64_t)slot * 8;
        int nw = 0;
        for (int i = 0; i < n_src; i++) {
            int32_t t = src_tags[i];
            if (m->tag_ready[t]) continue;
            int dup = 0;
            for (int j = 0; j < nw; j++)
                if (wt[j] == t) {
                    dup = 1;
                    break;
                }
            if (!dup) wt[nw++] = t;
        }
        m->iq_valid[slot] = 1;
        m->iq_rob[slot] = ri;
        m->iq_nwait[slot] = (uint8_t)nw;
        m->iq_fu[slot] = row->fu;
        m->iq_ready_cycle[slot] = ready_cycle;
        int64_t age = m->iq_next_age++;
        m->iq_age_arr[slot] = age;
        m->iq_tail = m->iq_tail + 1 == m->iq_cap ? 0 : m->iq_tail + 1;
        m->iq_count++;
        m->iq_span++;
        if (m->iq_bank_counts[m->iq_bank_of[slot]]++ == 0) m->iq_active_banks++;
        if (nw) {
            m->iq_waiting += nw;
            for (int i = 0; i < nw; i++)
                if (cons_append(m, wt[i], slot)) return -1;
        } else {
            /* Ages are monotonic, so dispatch appends at the end. */
            m->ready[m->ready_n].age = age;
            m->ready[m->ready_n].slot = slot;
            m->ready_n++;
        }
        dispatched++;
        if (warm) {
            m->st.dispatched_instructions++;
            m->st.iq_dispatch_writes++;
        }
    }
    if (dispatched) m->sample_dirty = 1;
    if (warm) {
        if (stalled_region) m->st.iq_dispatch_stall_cycles++;
        if (stalled_physical) m->st.iq_full_stall_cycles++;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Fetch.                                                              */
/* ------------------------------------------------------------------ */

/* Branch prediction for the entry at trace position `index`, with its
 * pc, outcome and next pc.  Returns 1 when the transfer mispredicted
 * (fetch must stop). */
static int handle_control(Machine *m, int flags, int64_t pc, int taken,
                          int64_t next_pc, int64_t index) {
    int mispredicted = 0;
    if (flags & m->F_BRANCH) {
        if (m->warm) m->st.branches++;
        int correct = pred_branch(&m->pred, pc, taken != 0, next_pc);
        mispredicted = !correct;
        if (mispredicted && m->warm) m->st.branch_mispredicts++;
    } else if (flags & m->F_CALL) {
        ras_push(&m->pred, pc + 4);
    } else if (flags & m->F_RET) {
        int correct = ras_predict(&m->pred, next_pc);
        mispredicted = !correct;
        if (mispredicted && m->warm) m->st.ras_mispredicts++;
    }
    if (mispredicted) m->blocked_seq = index;
    return mispredicted;
}

/* Instruction-cache access when fetch reaches a new line of `pc`.
 * Returns 1 on an L1I miss, which holds fetch until the line arrives. */
static inline int fetch_line(Machine *m, int64_t pc, int64_t cycle,
                             int64_t *last_line) {
    int64_t line = cache_line(&m->l1i, pc);
    if (line == *last_line) return 0;
    *last_line = line;
    int l1_hit = cache_access(&m->l1i, pc);
    int64_t latency;
    if (l1_hit) {
        latency = m->l1i_hit_lat;
    } else {
        int l2_hit = cache_access(&m->l2, pc);
        latency = l2_hit ? m->l1i_l2 : m->l1i_mem;
    }
    if (m->warm) {
        m->st.l1i_accesses++;
        if (!l1_hit) m->st.l1i_misses++;
    }
    if (l1_hit) return 0;
    m->fetch_resume = cycle + latency;
    return 1;
}

static int fetch_stage(Machine *m) {
    if (m->trace_exhausted) return 0;
    if (m->blocked_seq >= 0) return 0;
    int64_t cycle = m->abs_cycle;
    if (cycle < m->fetch_resume) return 0;
    if (m->fq_n >= m->fq_cap) return 0;
    const Window *w = m->win;
    int64_t index = m->trace_pos;
    int warm = m->warm;
    int64_t decode_ready = cycle + m->decode_latency;
    int width = m->fetch_width;
    int64_t last_line = m->last_fetch_line;
    int64_t fetched = 0, hints_fetched = 0;
    while (fetched < width && m->fq_n < m->fq_cap) {
        if (index >= w->length) {
            m->trace_exhausted = 1;
            break;
        }
        int64_t pc = w->pc[index];
        int64_t row = layout_row(m, pc, m->n_rows, "table");
        if (row < 0) return -1;
        int flags = m->rows[row].flags;
        if (flags & m->F_HINT) hints_fetched++;

        int missed = fetch_line(m, pc, cycle, &last_line);
        fq_push(m, index, decode_ready, (int32_t)row);
        fetched++;
        /* A missed line still delivers this instruction: run branch
         * prediction (it can block fetch past the miss). */
        int mispredicted =
            (flags & m->F_CONTROL) &&
            handle_control(m, flags, pc, w->taken[index], w->next_pc[index], index);
        index++;
        if (missed || mispredicted) break; /* stop fetching this cycle */
    }
    m->trace_pos = index;
    m->last_fetch_line = last_line;
    if (warm && fetched) {
        m->st.fetched_instructions += fetched;
        m->st.hint_noops_fetched += hints_fetched;
    }
    return 0;
}

/* The own-layout next pc of a branch or return at own pc `pc` (the first
 * hint fetched after it, else the next entry's pc) into *out; -1 with
 * ValueError set when its stripped next pc has no map entry. */
static int hinted_next_pc(const Machine *m, int64_t stripped_pc,
                          int64_t stripped_next, int taken, int flags,
                          int64_t pc, int64_t *out) {
    if (!stripped_next) {
        /* The trace ends: the tail run, if any, follows. */
        *out = m->tail_count ? m->table_base + 4 * m->tail_row : 0;
        return 0;
    }
    if ((flags & m->F_RET) && stripped_next == stripped_pc + 4) {
        *out = pc + 4; /* a return from the entry procedure ends the trace */
        return 0;
    }
    int64_t r = layout_row(m, stripped_next, m->n_hmap, "stripped layout");
    if (r < 0) return -1;
    const HintRun *run = &m->hmap[r];
    int64_t count = (taken && !(flags & m->F_RET)) ? run->taken : run->sequential;
    *out = m->table_base + 4 * (run->row - count);
    return 0;
}

/* fetch_stage for a stream with a hint-run map.  Entry by entry through
 * the stripped trace, fetch takes the entry's hint run first (its taken
 * run after a taken transfer other than a return, else its sequential
 * run), then the entry at its own row; after the last entry comes the
 * tail run, and no entry is fetched past the budget.  A hint's queue
 * position is the entry it precedes (the last entry for the tail).
 * Mirrors the scalar kernel's _fetch_expanding. */
static int fetch_expanding(Machine *m) {
    if (m->trace_exhausted) return 0;
    if (m->blocked_seq >= 0) return 0;
    int64_t cycle = m->abs_cycle;
    if (cycle < m->fetch_resume) return 0;
    if (m->fq_n >= m->fq_cap) return 0;
    const Window *w = m->win;
    int64_t index = m->trace_pos;
    int warm = m->warm;
    int64_t decode_ready = cycle + m->decode_latency;
    int width = m->fetch_width;
    int64_t last_line = m->last_fetch_line;
    int64_t fetched = 0, hints_fetched = 0;
    while (fetched < width && m->fq_n < m->fq_cap) {
        if (m->fetched_total >= m->budget) {
            m->trace_exhausted = 1;
            break;
        }
        if (m->pending < 0) {
            /* First visit to the entry at `index`: find its run. */
            if (index >= w->length) {
                m->in_tail = 1;
                m->pending = m->tail_count;
                m->hint_row = m->tail_row;
            }
            if (!m->in_tail) {
                int64_t r = layout_row(m, w->pc[index], m->n_hmap, "stripped layout");
                if (r < 0) return -1;
                const HintRun *run = &m->hmap[r];
                m->entry_row = run->row;
                m->pending = m->after_taken ? run->taken : run->sequential;
                m->hint_row = run->row - m->pending;
            }
        }
        int entry = m->pending == 0;
        int64_t row, position;
        if (entry) {
            if (m->in_tail) {
                m->trace_exhausted = 1;
                break;
            }
            row = m->entry_row;
            position = index;
            m->pending = -1;
        } else {
            row = m->hint_row++;
            m->pending--;
            position = m->in_tail ? index - 1 : index;
        }
        m->fetched_total++;
        int64_t pc = m->table_base + 4 * row;
        int flags = m->rows[row].flags;
        if (flags & m->F_HINT) hints_fetched++;

        int missed = fetch_line(m, pc, cycle, &last_line);
        fq_push(m, position, decode_ready, (int32_t)row);
        fetched++;
        int mispredicted = 0;
        if (entry) {
            int taken = w->taken[index];
            if (flags & m->F_CONTROL) {
                int64_t next_pc = 0;
                if ((flags & (m->F_BRANCH | m->F_RET)) &&
                    hinted_next_pc(m, w->pc[index], w->next_pc[index], taken, flags,
                                   pc, &next_pc))
                    return -1;
                mispredicted = handle_control(m, flags, pc, taken, next_pc, index);
            }
            m->after_taken = taken && !(flags & m->F_RET);
            index++;
        }
        if (missed || mispredicted) break; /* stop fetching this cycle */
    }
    m->trace_pos = index;
    m->last_fetch_line = last_line;
    if (warm && fetched) {
        m->st.fetched_instructions += fetched;
        m->st.hint_noops_fetched += hints_fetched;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Step / run.                                                         */
/* ------------------------------------------------------------------ */

static int step(Machine *m) {
    memset(m->fu_used, 0, (size_t)m->n_fu * sizeof(int64_t));
    if (commit_stage(m)) return -1;
    writeback(m);
    if (issue_stage(m)) return -1;
    if (dispatch_stage(m)) return -1;
    if (m->hmap ? fetch_expanding(m) : fetch_stage(m)) return -1;
    if (m->warm && m->sample_dirty) flush_sample(m);
    if (m->abs_cycle - m->base >= m->wake) {
        if (call_hook(m, 1, 0)) return -1;
    }
    m->abs_cycle++;
    return 0;
}

static int run_machine(Machine *m) {
    while (!(m->trace_exhausted && m->fq_n == 0 && m->rob_count == 0)) {
        if (step(m)) return -1;
        if (m->has_max_cycles && (m->abs_cycle - m->base) >= m->max_cycles)
            break;
    }
    if (m->warm) flush_sample(m);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Machine construction / teardown.                                    */
/* ------------------------------------------------------------------ */

static void free_machine(Machine *m) {
    cache_free(&m->l1i);
    cache_free(&m->l1d);
    cache_free(&m->l2);
    pred_free(&m->pred);
    rf_free_struct(&m->rf_int);
    rf_free_struct(&m->rf_fp);
    free(m->fu_limits);
    free(m->fu_used);
    free(m->fu_issues);
    free(m->iq_valid);
    free(m->iq_rob);
    free(m->iq_ready_cycle);
    free(m->iq_age_arr);
    free(m->iq_fu);
    free(m->iq_nwait);
    free(m->iq_wait);
    free(m->iq_bank_of);
    free(m->iq_bank_counts);
    free(m->rob_dyn);
    free(m->rob_state);
    free(m->rob_flags);
    free(m->rob_latency);
    free(m->rob_mem);
    free(m->rob_ndest);
    free(m->rob_nsrc);
    free(m->rob_nfreed);
    free(m->rob_dest);
    free(m->rob_src);
    free(m->rob_freed);
    free(m->tag_ready);
    if (m->cons) {
        int32_t total = m->int_phys + (m->rf_fp.nphys ? m->rf_fp.nphys : 0);
        for (int32_t i = 0; i < total; i++) free(m->cons[i].slots);
        free(m->cons);
    }
    free(m->ready);
    if (m->ring) {
        for (int64_t i = 0; i < m->ring_size; i++) free(m->ring[i].items);
        free(m->ring);
    }
    free(m->fq_idx);
    free(m->fq_ready);
    free(m->fq_row);
    free(m->rows);
    free(m->hmap);
    free_window(m->win);
    Py_XDECREF(m->hook);
    free(m);
}

static int get_ll(PyObject *params, const char *key, int64_t *out) {
    PyObject *v = PyDict_GetItemString(params, key); /* borrowed */
    if (!v) {
        PyErr_Format(PyExc_KeyError, "native params missing %s", key);
        return -1;
    }
    int64_t x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred()) return -1;
    *out = x;
    return 0;
}

#define GET(key, field) \
    do { \
        int64_t tmp_; \
        if (get_ll(params, key, &tmp_)) goto fail; \
        field = tmp_; \
    } while (0)

static Machine *build_machine(PyObject *params) {
    Machine *m = (Machine *)calloc(1, sizeof(Machine));
    if (!m) {
        PyErr_NoMemory();
        return NULL;
    }
    int64_t v;

    GET("fetch_width", m->fetch_width);
    GET("dispatch_width", m->dispatch_width);
    GET("issue_width", m->issue_width);
    GET("commit_width", m->commit_width);
    GET("fetch_queue_entries", m->fq_cap);
    GET("decode_latency", m->decode_latency);
    GET("branch_mispredict_penalty", m->mispredict_penalty);
    GET("rob_entries", m->rob_cap);
    GET("iq_entries", m->iq_cap);
    GET("iq_bank_size", m->iq_bank_size);
    m->iq_num_banks = (m->iq_cap + m->iq_bank_size - 1) / m->iq_bank_size;
    m->cmp_full_per_broadcast = 2 * m->iq_cap;

    int64_t int_phys, fp_phys, rf_bank, int_arch, fp_arch;
    GET("int_phys_regs", int_phys);
    GET("fp_phys_regs", fp_phys);
    GET("regfile_bank_size", rf_bank);
    GET("num_int_arch", int_arch);
    GET("num_fp_arch", fp_arch);
    m->int_phys = (int32_t)int_phys;
    m->fp_offset = (int32_t)int_phys;
    if (rf_init(&m->rf_int, (int32_t)int_phys, (int32_t)int_arch, (int32_t)rf_bank))
        goto fail_mem;
    if (rf_init(&m->rf_fp, (int32_t)fp_phys, (int32_t)fp_arch, (int32_t)rf_bank))
        goto fail_mem;

    int64_t sets, assoc, line, hit;
    GET("l1i_sets", sets);
    GET("l1i_assoc", assoc);
    GET("l1i_line", line);
    GET("l1i_hit", hit);
    if (cache_init(&m->l1i, sets, assoc, line)) goto fail_mem;
    m->l1i_hit_lat = hit;
    GET("l1d_sets", sets);
    GET("l1d_assoc", assoc);
    GET("l1d_line", line);
    GET("l1d_hit", hit);
    if (cache_init(&m->l1d, sets, assoc, line)) goto fail_mem;
    m->l1d_hit_lat = hit;
    int64_t l2_hit, l2_miss;
    GET("l2_sets", sets);
    GET("l2_assoc", assoc);
    GET("l2_line", line);
    GET("l2_hit", l2_hit);
    GET("l2_miss_latency", l2_miss);
    if (cache_init(&m->l2, sets, assoc, line)) goto fail_mem;
    m->l1i_l2 = m->l1i_hit_lat + l2_hit;
    m->l1i_mem = m->l1i_l2 + l2_miss;
    m->l1d_l2 = m->l1d_hit_lat + l2_hit;
    m->l1d_mem = m->l1d_l2 + l2_miss;

    int64_t gn, bn, sn, hb, btb_sets, btb_assoc, ras;
    GET("gshare_entries", gn);
    GET("bimodal_entries", bn);
    GET("selector_entries", sn);
    GET("history_bits", hb);
    GET("btb_sets", btb_sets);
    GET("btb_assoc", btb_assoc);
    GET("ras_entries", ras);
    if (pred_init(&m->pred, gn, bn, sn, hb, btb_sets, btb_assoc, ras))
        goto fail_mem;

    GET("f_hint", m->F_HINT);
    GET("f_nop", m->F_NOP);
    GET("f_branch", m->F_BRANCH);
    GET("f_call", m->F_CALL);
    GET("f_ret", m->F_RET);
    GET("f_load", m->F_LOAD);
    GET("f_store", m->F_STORE);
    m->F_CONTROL = m->F_BRANCH | m->F_CALL | m->F_RET;

    GET("uses_hints", m->uses_hints);
    GET("iq_bank_gating", m->iq_bank_gating);
    GET("rf_bank_gating", m->rf_bank_gating);
    GET("stock_hints", m->stock_hints);
    GET("hint_floor", m->hint_floor);
    GET("wake", m->wake);
    GET("warmup_instructions", m->warmup_instructions);
    GET("max_cycles", m->max_cycles);
    m->has_max_cycles = m->max_cycles >= 0;
    GET("global_limit", m->iq_global_limit);
    GET("max_new_range", m->iq_max_new_range);
    GET("rob_limit", m->rob_limit);
    GET("new_head", m->iq_new_head);
    m->warm = m->warmup_instructions == 0;

    /* Functional-unit limits, indexed by FU_ORDER ordinal. */
    {
        PyObject *limits = PyDict_GetItemString(params, "fu_limits");
        if (!limits) {
            PyErr_SetString(PyExc_KeyError, "native params missing fu_limits");
            goto fail;
        }
        PyObject *fast = PySequence_Fast(limits, "fu_limits must be a sequence");
        if (!fast) goto fail;
        m->n_fu = (int)PySequence_Fast_GET_SIZE(fast);
        m->fu_limits = (int64_t *)malloc((size_t)m->n_fu * sizeof(int64_t));
        m->fu_used = (int64_t *)calloc((size_t)m->n_fu, sizeof(int64_t));
        m->fu_issues = (int64_t *)calloc((size_t)m->n_fu, sizeof(int64_t));
        if (!m->fu_limits || !m->fu_used || !m->fu_issues) {
            Py_DECREF(fast);
            goto fail_mem;
        }
        PyObject **items = PySequence_Fast_ITEMS(fast);
        for (int i = 0; i < m->n_fu; i++) {
            m->fu_limits[i] = PyLong_AsLongLong(items[i]);
            if (m->fu_limits[i] == -1 && PyErr_Occurred()) {
                Py_DECREF(fast);
                goto fail;
            }
        }
        Py_DECREF(fast);
    }

    /* Issue queue. */
    m->iq_valid = (uint8_t *)calloc((size_t)m->iq_cap, 1);
    m->iq_rob = (int32_t *)malloc((size_t)m->iq_cap * sizeof(int32_t));
    m->iq_ready_cycle = (int64_t *)malloc((size_t)m->iq_cap * sizeof(int64_t));
    m->iq_age_arr = (int64_t *)malloc((size_t)m->iq_cap * sizeof(int64_t));
    m->iq_fu = (uint8_t *)malloc((size_t)m->iq_cap);
    m->iq_nwait = (uint8_t *)malloc((size_t)m->iq_cap);
    m->iq_wait = (int32_t *)malloc((size_t)m->iq_cap * 8 * sizeof(int32_t));
    m->iq_bank_of = (int32_t *)malloc((size_t)m->iq_cap * sizeof(int32_t));
    m->iq_bank_counts = (int32_t *)calloc((size_t)m->iq_num_banks, sizeof(int32_t));
    if (!m->iq_valid || !m->iq_rob || !m->iq_ready_cycle || !m->iq_age_arr ||
        !m->iq_fu || !m->iq_nwait || !m->iq_wait || !m->iq_bank_of ||
        !m->iq_bank_counts)
        goto fail_mem;
    for (int64_t slot = 0; slot < m->iq_cap; slot++)
        m->iq_bank_of[slot] = (int32_t)(slot / m->iq_bank_size);

    /* ROB. */
    m->rob_dyn = (int64_t *)malloc((size_t)m->rob_cap * sizeof(int64_t));
    m->rob_state = (uint8_t *)calloc((size_t)m->rob_cap, 1);
    m->rob_flags = (uint8_t *)malloc((size_t)m->rob_cap);
    m->rob_latency = (uint8_t *)malloc((size_t)m->rob_cap);
    m->rob_mem = (int64_t *)malloc((size_t)m->rob_cap * sizeof(int64_t));
    m->rob_ndest = (uint8_t *)malloc((size_t)m->rob_cap);
    m->rob_nsrc = (uint8_t *)malloc((size_t)m->rob_cap);
    m->rob_nfreed = (uint8_t *)malloc((size_t)m->rob_cap);
    m->rob_dest = (int32_t *)malloc((size_t)m->rob_cap * 8 * sizeof(int32_t));
    m->rob_src = (int32_t *)malloc((size_t)m->rob_cap * 8 * sizeof(int32_t));
    m->rob_freed = (int32_t *)malloc((size_t)m->rob_cap * 8 * sizeof(int32_t));
    if (!m->rob_dyn || !m->rob_state || !m->rob_flags || !m->rob_latency ||
        !m->rob_mem || !m->rob_ndest || !m->rob_nsrc || !m->rob_nfreed ||
        !m->rob_dest || !m->rob_src || !m->rob_freed)
        goto fail_mem;

    /* Scoreboard, consumers, ready set. */
    {
        int32_t total_tags = (int32_t)(int_phys + fp_phys);
        m->tag_ready = (uint8_t *)malloc((size_t)total_tags);
        m->cons = (Cons *)calloc((size_t)total_tags, sizeof(Cons));
        if (!m->tag_ready || !m->cons) goto fail_mem;
        memset(m->tag_ready, 1, (size_t)total_tags);
    }
    m->ready = (ReadyEnt *)malloc((size_t)m->iq_cap * sizeof(ReadyEnt));
    if (!m->ready) goto fail_mem;

    /* Completion calendar ring: power of two covering the longest
     * possible latency (base <= 255 plus the full d-cache miss path). */
    {
        int64_t horizon = 255 + m->l1d_mem + 2;
        m->ring_size = 1;
        while (m->ring_size < horizon) m->ring_size <<= 1;
        m->ring_mask = m->ring_size - 1;
        m->ring = (Bucket *)calloc((size_t)m->ring_size, sizeof(Bucket));
        if (!m->ring) goto fail_mem;
    }

    /* Fetch queue. */
    m->fq_idx = (int64_t *)malloc((size_t)m->fq_cap * sizeof(int64_t));
    m->fq_ready = (int64_t *)malloc((size_t)m->fq_cap * sizeof(int64_t));
    m->fq_row = (int32_t *)malloc((size_t)m->fq_cap * sizeof(int32_t));
    if (!m->fq_idx || !m->fq_ready || !m->fq_row) goto fail_mem;

    /* The static table: copied once per run, and every row validated so
     * dispatch can index the rename maps and FU arrays unchecked. */
    GET("table_base", m->table_base);
    {
        PyObject *table = PyDict_GetItemString(params, "table");
        if (!table) {
            PyErr_SetString(PyExc_KeyError, "native params missing table");
            goto fail;
        }
        Py_buffer view;
        if (PyObject_GetBuffer(table, &view, PyBUF_SIMPLE) < 0) goto fail;
        if (view.len % (Py_ssize_t)sizeof(StaticRow) ||
            view.len / (Py_ssize_t)sizeof(StaticRow) > INT32_MAX) {
            PyBuffer_Release(&view);
            PyErr_SetString(PyExc_ValueError,
                            "static table must be whole 40-byte rows");
            goto fail;
        }
        m->n_rows = view.len / (Py_ssize_t)sizeof(StaticRow);
        m->rows = (StaticRow *)malloc((size_t)(m->n_rows ? m->n_rows : 1) *
                                      sizeof(StaticRow));
        if (!m->rows) {
            PyBuffer_Release(&view);
            goto fail_mem;
        }
        if (view.len) memcpy(m->rows, view.buf, (size_t)view.len);
        PyBuffer_Release(&view);
    }
    for (int64_t r = 0; r < m->n_rows; r++) {
        const StaticRow *row = &m->rows[r];
        int bad = row->fu >= m->n_fu;
        for (int c = 0; c < 4 && !bad; c++) {
            int32_t narch = (c & 1) ? m->rf_fp.narch : m->rf_int.narch;
            if (row->nspec[c] > 4) bad = 1;
            for (int i = 0; i < row->nspec[c] && !bad; i++)
                if (row->regs[c * 4 + i] >= narch) bad = 1;
        }
        if (bad) {
            PyErr_Format(PyExc_ValueError,
                         "static table row %lld is out of range for this machine",
                         (long long)r);
            goto fail;
        }
    }

    /* The hint-run map: copied once per run, and every entry validated
     * so fetch can index the table through it unchecked.  An entry's own
     * row lies in the table, and each run it names (and the tail run)
     * lies in the table and holds only F_HINT rows, counted through a
     * prefix sum of them. */
    {
        PyObject *hmap = PyDict_GetItemString(params, "hint_map");
        if (!hmap) {
            PyErr_SetString(PyExc_KeyError, "native params missing hint_map");
            goto fail;
        }
        if (hmap != Py_None) {
            GET("hint_tail_row", m->tail_row);
            GET("hint_tail_count", m->tail_count);
            GET("hint_budget", m->budget);
            Py_buffer view;
            if (PyObject_GetBuffer(hmap, &view, PyBUF_SIMPLE) < 0) goto fail;
            if (view.len % (Py_ssize_t)sizeof(HintRun)) {
                PyBuffer_Release(&view);
                PyErr_SetString(PyExc_ValueError,
                                "hint map must be whole 24-byte entries");
                goto fail;
            }
            m->n_hmap = view.len / (Py_ssize_t)sizeof(HintRun);
            m->hmap = (HintRun *)malloc((size_t)(m->n_hmap ? m->n_hmap : 1) *
                                        sizeof(HintRun));
            int64_t *hints_below = (int64_t *)malloc((size_t)(m->n_rows + 1) *
                                                     sizeof(int64_t));
            if (!m->hmap || !hints_below) {
                PyBuffer_Release(&view);
                free(hints_below);
                goto fail_mem;
            }
            if (view.len) memcpy(m->hmap, view.buf, (size_t)view.len);
            PyBuffer_Release(&view);
            hints_below[0] = 0;
            for (int64_t r = 0; r < m->n_rows; r++)
                hints_below[r + 1] = hints_below[r] + ((m->rows[r].flags & m->F_HINT) != 0);
            /* Every bound is checked before the arithmetic it guards, so
             * no value a caller passes can overflow it. */
#define ALL_HINTS(first, count) \
    (hints_below[(first) + (count)] - hints_below[first] == (count))
            int64_t bad = -1;
            for (int64_t e = 0; e < m->n_hmap && bad < 0; e++) {
                const HintRun *run = &m->hmap[e];
                if (run->row < 0 || run->row >= m->n_rows || run->sequential < 0 ||
                    run->sequential > run->row || run->taken < 0 ||
                    run->taken > run->row ||
                    !ALL_HINTS(run->row - run->sequential, run->sequential) ||
                    !ALL_HINTS(run->row - run->taken, run->taken))
                    bad = e;
            }
            int tail_ok = m->tail_row >= 0 && m->tail_row <= m->n_rows &&
                          m->tail_count >= 0 &&
                          m->tail_count <= m->n_rows - m->tail_row &&
                          ALL_HINTS(m->tail_row, m->tail_count) && m->budget >= 0;
#undef ALL_HINTS
            free(hints_below);
            if (bad >= 0) {
                PyErr_Format(PyExc_ValueError,
                             "hint map entry %lld is out of range for its table",
                             (long long)bad);
                goto fail;
            }
            if (!tail_ok) {
                PyErr_SetString(PyExc_ValueError,
                                "hint map tail or budget is out of range for its table");
                goto fail;
            }
        }
        m->pending = -1;
    }

    /* Front-end state. */
    m->blocked_seq = -1;
    m->last_fetch_line = LINE_NONE;
    m->sample_dirty = 1;

    /* The trace window + the policy hook. */
    {
        PyObject *window = PyDict_GetItemString(params, "window");
        PyObject *hook = PyDict_GetItemString(params, "hook");
        if (!window || !hook) {
            PyErr_SetString(PyExc_KeyError, "native params missing window/hook");
            goto fail;
        }
        m->hook = Py_NewRef(hook);
        m->win = lower_window(window);
        if (!m->win) goto fail;
    }
    (void)v;
    return m;

fail_mem:
    if (!PyErr_Occurred()) PyErr_NoMemory();
fail:
    free_machine(m);
    return NULL;
}

#undef GET

/* ------------------------------------------------------------------ */
/* Module entry point.                                                 */
/* ------------------------------------------------------------------ */

static int set_ll(PyObject *d, const char *key, int64_t value) {
    PyObject *v = PyLong_FromLongLong(value);
    if (!v) return -1;
    int rc = PyDict_SetItemString(d, key, v);
    Py_DECREF(v);
    return rc;
}

static PyObject *native_run(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *params;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &params)) return NULL;
    Machine *m = build_machine(params);
    if (!m) return NULL;
    if (run_machine(m)) {
        free_machine(m);
        return NULL;
    }
    PyObject *out = PyDict_New();
    if (!out) {
        free_machine(m);
        return NULL;
    }
    int rc = 0;
#define X(name) rc |= set_ll(out, #name, m->st.name);
    STAT_FIELDS(X)
#undef X
    rc |= set_ll(out, "cycles", m->warm ? m->abs_cycle - m->base : 0);
    rc |= set_ll(out, "structural_stalls", m->structural_stalls);
    rc |= set_ll(out, "hints_applied", m->hints_applied);
    rc |= set_ll(out, "last_hint_value", m->last_hint_value);
    free_machine(m);
    if (rc) {
        Py_DECREF(out);
        return NULL;
    }
    return out;
}

static PyMethodDef native_methods[] = {
    {"run", native_run, METH_VARARGS,
     "Replay a trace stream; returns the statistics dict."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "_native_replay",
    "Compiled replay kernel for the repro out-of-order timing model.",
    -1,
    native_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__native_replay(void) {
    return PyModule_Create(&native_module);
}



