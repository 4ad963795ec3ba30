/* Compiled twin of repro/gpusim/_event_core.py.
 *
 * This extension is a line-for-line transcription of the pure-Python
 * event core over the same packed struct-of-arrays interface:
 * run_exact() transcribes `_run_exact_py`, and replay_many() runs
 * `_replay_py` for every requested link in one pass over the tape
 * (the only replay entry point; a single link is a one-pack call).
 * The contract is bit identity: every floating-point operation is an
 * IEEE-754 double op issued in the same order as the Python
 * implementation (the build disables FP contraction so no fused
 * multiply-adds sneak in), every integer quantity is an int64, and
 * the scheduler heap reproduces heapq's strict (ready, sequence)
 * total order.  tests/test_event_core.py asserts the identity per
 * run; the CI `event-core` job diffs whole-study digests against the
 * REPRO_NO_EXT fallback.
 *
 * The Python-side dict/list structures map to flat arrays:
 *
 *  - insertion-ordered dict per cache set (key order == LRU order,
 *    oldest first)  ->  per-set line/mask/dirty arrays + a fill
 *    count, index 0 the LRU way; a touch shifts the entry to the
 *    back, an insert evicts index 0 when the set is full;
 *  - the metadata cache's per-set tag list (append on hit/miss,
 *    pop(0) past capacity)  ->  a tag array with one slack slot;
 *  - per-warp outstanding-completion lists  ->  one flat double
 *    array partitioned by each warp's trace-row span (a warp issues
 *    at most one completion per row).
 *
 * ABI is checked by _event_core.py at import; bump it when the
 * array-pack layout changes.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>

#define EXT_ABI 2

/* arrays-tuple slots (mirrors _event_core.A_*) */
enum {
    A_CODES, A_BUSY, A_LID, A_MASK, A_L1FLAT, A_L2SET,
    A_CHAN, A_ROW, A_BANK,
    A_DEV, A_SERV_HIT, A_SERV_MISS,
    A_BUD, A_BNUM, A_HBYTES, A_HNUM,
    A_MTAG, A_MSLOT, A_MCHAN, A_MROW, A_MBANK,
    A_WB_DEV, A_WB_SERV, A_WB_BUD, A_WB_BNUM,
    A_WB_IDEAL_BYTES, A_WB_IDEAL_SERV,
    A_WARP_START, A_WARP_SM, A_WARP_MLP,
    A_COUNT
};

/* iscalars slots (mirrors _event_core.I_*) */
enum {
    I_WARP_COUNT, I_SM_COUNT, I_CHANNELS, I_BANKS,
    I_LINE_BYTES, I_ROW_BYTES, I_ENTRIES,
    I_L1_SETS, I_L1_WAYS, I_L2_SETS, I_L2_WAYS,
    I_META_SLOTS, I_META_WAYS,
    I_IDEAL, I_USE_META, I_FULL_MASK, I_META_LINE_BYTES,
    I_COUNT
};

/* fscalars slots (mirrors _event_core.F_*) */
enum {
    F_INTERVAL, F_L1_LAT, F_L2_LAT, F_DRAM_LAT,
    F_LINK_BPC, F_LINK_LAT, F_FILL_TAIL,
    F_META_SERV_HIT, F_META_SERV_MISS,
    F_ROW_HIT_OV, F_ROW_MISS_OV,
    F_COUNT
};

/* replay scalar slots (mirrors _event_core.RI_* / RF_*) */
enum { RI_WARP_COUNT, RI_SM_COUNT, RI_CHANNELS, RI_COUNT };
enum {
    RF_INTERVAL, RF_DRAM_LAT, RF_ARRIVAL_LAT,
    RF_LINK_BPC, RF_LINK_LAT, RF_FILL_TAIL,
    RF_COUNT
};

typedef struct {
    Py_buffer view;
    int has;
} Buf;

static int
get_buf(PyObject *obj, Buf *b, int writable)
{
    b->has = 0;
    if (obj == Py_None)
        return 0;
    if (PyObject_GetBuffer(
            obj, &b->view,
            writable ? (PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE)
                     : PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    b->has = 1;
    return 0;
}

static void
release_bufs(Buf *bufs, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++)
        if (bufs[i].has)
            PyBuffer_Release(&bufs[i].view);
}

static int
unpack_i64(PyObject *tup, int64_t *out, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyTuple_GetItem(tup, i);
        if (item == NULL)
            return -1;
        out[i] = (int64_t)PyLong_AsLongLong(item);
        if (out[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static int
unpack_f64(PyObject *tup, double *out, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyTuple_GetItem(tup, i);
        if (item == NULL)
            return -1;
        out[i] = PyFloat_AsDouble(item);
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* The scheduler heap: strict (ready, seq) total order, identical to  */
/* heapq over (ready, seq, w) tuples (seq is unique, so w never       */
/* participates in a comparison).                                     */
/* ------------------------------------------------------------------ */
typedef struct {
    double ready;
    int64_t seq;
    int64_t w;
} Ev;

static inline int
ev_lt(const Ev *a, const Ev *b)
{
    return a->ready < b->ready ||
           (a->ready == b->ready && a->seq < b->seq);
}

static void
heap_siftdown(Ev *h, Py_ssize_t n, Py_ssize_t pos)
{
    Ev item = h[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ev_lt(&h[child + 1], &h[child]))
            child++;
        if (!ev_lt(&h[child], &item))
            break;
        h[pos] = h[child];
        pos = child;
    }
    h[pos] = item;
}

static Ev
heap_pop(Ev *h, Py_ssize_t *n)
{
    Ev top = h[0];
    (*n)--;
    if (*n > 0) {
        h[0] = h[*n];
        heap_siftdown(h, *n, 0);
    }
    return top;
}

/* ------------------------------------------------------------------ */
/* LRU sets over flat arrays (index 0 = least recently used).         */
/* ------------------------------------------------------------------ */
static inline Py_ssize_t
lru_find(const int64_t *line, int32_t cnt, int64_t lid)
{
    for (int32_t j = 0; j < cnt; j++)
        if (line[j] == lid)
            return j;
    return -1;
}

static inline void
lru_touch(int64_t *line, int64_t *mask, int64_t *dirty,
          int32_t cnt, Py_ssize_t j, int64_t newmask)
{
    int64_t lid = line[j];
    int64_t d = dirty != NULL ? dirty[j] : 0;
    for (Py_ssize_t k = j; k + 1 < cnt; k++) {
        line[k] = line[k + 1];
        mask[k] = mask[k + 1];
        if (dirty != NULL)
            dirty[k] = dirty[k + 1];
    }
    line[cnt - 1] = lid;
    mask[cnt - 1] = newmask;
    if (dirty != NULL)
        dirty[cnt - 1] = d;
}

/* Insert `lid` as most-recent.  When the set is full the LRU way
 * (index 0) is evicted; its line/dirty-mask land in *victim /
 * *victim_dirty and 1 is returned. */
static inline int
lru_insert(int64_t *line, int64_t *mask, int64_t *dirty,
           int32_t *cnt, int32_t ways, int64_t lid, int64_t newmask,
           int64_t newdirty, int64_t *victim, int64_t *victim_dirty)
{
    int evicted = 0;
    int32_t n = *cnt;
    if (n >= ways) {
        *victim = line[0];
        *victim_dirty = dirty != NULL ? dirty[0] : 0;
        evicted = 1;
        for (int32_t k = 0; k + 1 < n; k++) {
            line[k] = line[k + 1];
            mask[k] = mask[k + 1];
            if (dirty != NULL)
                dirty[k] = dirty[k + 1];
        }
        n--;
    }
    line[n] = lid;
    mask[n] = newmask;
    if (dirty != NULL)
        dirty[n] = newdirty;
    *cnt = n + 1;
    return evicted;
}

/* ------------------------------------------------------------------ */
/* run_exact(arrays, iscalars, fscalars, tape_cols_or_None)           */
/* ------------------------------------------------------------------ */
static PyObject *
run_exact(PyObject *self, PyObject *args)
{
    PyObject *arrays, *iscalars_o, *fscalars_o, *tape;
    if (!PyArg_ParseTuple(args, "OOOO", &arrays, &iscalars_o,
                          &fscalars_o, &tape))
        return NULL;

    int64_t isc[I_COUNT];
    double fsc[F_COUNT];
    if (unpack_i64(iscalars_o, isc, I_COUNT) < 0 ||
        unpack_f64(fscalars_o, fsc, F_COUNT) < 0)
        return NULL;

    Buf bufs[A_COUNT];
    for (Py_ssize_t k = 0; k < A_COUNT; k++)
        bufs[k].has = 0;
    Buf tbufs[12];
    for (Py_ssize_t k = 0; k < 12; k++)
        tbufs[k].has = 0;

    PyObject *result = NULL;

    for (Py_ssize_t k = 0; k < A_COUNT; k++) {
        PyObject *item = PyTuple_GetItem(arrays, k);
        if (item == NULL || get_buf(item, &bufs[k], 0) < 0)
            goto cleanup;
    }
    int record = tape != Py_None;
    if (record) {
        for (Py_ssize_t k = 0; k < 12; k++) {
            PyObject *item = PyTuple_GetItem(tape, k);
            if (item == NULL || get_buf(item, &tbufs[k], 1) < 0)
                goto cleanup;
        }
    }

#define I64A(idx) ((const int64_t *)bufs[idx].view.buf)
#define F64A(idx) ((const double *)bufs[idx].view.buf)

    const int64_t *codes = I64A(A_CODES);
    const double *busy_col = F64A(A_BUSY);
    const int64_t *lid_a = I64A(A_LID);
    const int64_t *mask_a = I64A(A_MASK);
    const int64_t *l1flat_a = I64A(A_L1FLAT);
    const int64_t *l2set_a = I64A(A_L2SET);
    const int64_t *chan_a = I64A(A_CHAN);
    const int64_t *row_a = I64A(A_ROW);
    const int64_t *bank_a = I64A(A_BANK);
    const int64_t *dev_a = I64A(A_DEV);
    const double *servh_a = F64A(A_SERV_HIT);
    const double *servm_a = F64A(A_SERV_MISS);
    const int64_t *bud_a = bufs[A_BUD].has ? I64A(A_BUD) : NULL;
    const int64_t *bnum_a = bufs[A_BNUM].has ? I64A(A_BNUM) : NULL;
    const int64_t *hbytes_a = bufs[A_HBYTES].has ? I64A(A_HBYTES) : NULL;
    const int64_t *hnum_a = bufs[A_HNUM].has ? I64A(A_HNUM) : NULL;
    const int64_t *mtag_a = I64A(A_MTAG);
    const int64_t *mslot_a = I64A(A_MSLOT);
    const int64_t *mchan_a = I64A(A_MCHAN);
    const int64_t *mrow_a = I64A(A_MROW);
    const int64_t *mbank_a = I64A(A_MBANK);
    const int64_t *wb_dev = bufs[A_WB_DEV].has ? I64A(A_WB_DEV) : NULL;
    const double *wb_serv = bufs[A_WB_SERV].has ? F64A(A_WB_SERV) : NULL;
    const int64_t *wb_bud = bufs[A_WB_BUD].has ? I64A(A_WB_BUD) : NULL;
    const int64_t *wb_bnum = bufs[A_WB_BNUM].has ? I64A(A_WB_BNUM) : NULL;
    const int64_t *wb_ideal_bytes =
        bufs[A_WB_IDEAL_BYTES].has ? I64A(A_WB_IDEAL_BYTES) : NULL;
    const double *wb_ideal_serv =
        bufs[A_WB_IDEAL_SERV].has ? F64A(A_WB_IDEAL_SERV) : NULL;
    const int64_t *warp_start = I64A(A_WARP_START);
    const int64_t *warp_sm = I64A(A_WARP_SM);
    const int64_t *warp_mlp = I64A(A_WARP_MLP);

    int8_t *tk = record ? (int8_t *)tbufs[0].view.buf : NULL;
    int32_t *tw = record ? (int32_t *)tbufs[1].view.buf : NULL;
    int32_t *tsm = record ? (int32_t *)tbufs[2].view.buf : NULL;
    double *tf0 = record ? (double *)tbufs[3].view.buf : NULL;
    double *tf1 = record ? (double *)tbufs[4].view.buf : NULL;
    double *tf2 = record ? (double *)tbufs[5].view.buf : NULL;
    int32_t *ti0 = record ? (int32_t *)tbufs[6].view.buf : NULL;
    int32_t *ti1 = record ? (int32_t *)tbufs[7].view.buf : NULL;
    int32_t *ti2 = record ? (int32_t *)tbufs[8].view.buf : NULL;
    int32_t *ti3 = record ? (int32_t *)tbufs[9].view.buf : NULL;
    int32_t *ti4 = record ? (int32_t *)tbufs[10].view.buf : NULL;
    int32_t *ti5 = record ? (int32_t *)tbufs[11].view.buf : NULL;
    Py_ssize_t tidx = 0;

    const int64_t warp_count = isc[I_WARP_COUNT];
    const int64_t sm_count = isc[I_SM_COUNT];
    const int64_t channels = isc[I_CHANNELS];
    const int64_t banks = isc[I_BANKS];
    const int64_t line_bytes = isc[I_LINE_BYTES];
    const int64_t row_bytes = isc[I_ROW_BYTES];
    const int64_t entries = isc[I_ENTRIES];
    const int64_t l1_sets_total = isc[I_L1_SETS];
    const int32_t l1_ways = (int32_t)isc[I_L1_WAYS];
    const int64_t l2_sets = isc[I_L2_SETS];
    const int32_t l2_ways = (int32_t)isc[I_L2_WAYS];
    const int64_t meta_slots = isc[I_META_SLOTS];
    const int32_t meta_ways = (int32_t)isc[I_META_WAYS];
    const int ideal = isc[I_IDEAL] != 0;
    const int use_meta = isc[I_USE_META] != 0;
    const int64_t full_mask = isc[I_FULL_MASK];
    const int64_t meta_line_bytes = isc[I_META_LINE_BYTES];

    const double interval = fsc[F_INTERVAL];
    const double l1_lat = fsc[F_L1_LAT];
    const double l2_lat = fsc[F_L2_LAT];
    const double dram_lat = fsc[F_DRAM_LAT];
    const double link_bpc = fsc[F_LINK_BPC];
    const double link_lat = fsc[F_LINK_LAT];
    const double fill_tail = fsc[F_FILL_TAIL];
    const double meta_serv_hit = fsc[F_META_SERV_HIT];
    const double meta_serv_miss = fsc[F_META_SERV_MISS];
    const double row_hit_ov = fsc[F_ROW_HIT_OV];
    const double row_miss_ov = fsc[F_ROW_MISS_OV];

    const Py_ssize_t n_rows =
        (Py_ssize_t)(bufs[A_CODES].view.len / (Py_ssize_t)sizeof(int64_t));

    /* working state */
    int64_t *l1_line = NULL, *l1_mask = NULL;
    int32_t *l1_cnt = NULL;
    int64_t *l2_line = NULL, *l2_mask = NULL, *l2_dirty = NULL;
    int32_t *l2_cnt = NULL;
    int64_t *meta_tag = NULL;
    int32_t *meta_cnt = NULL;
    double *next_free = NULL, *sm_free = NULL, *out = NULL;
    int64_t *open_rows = NULL, *ips = NULL;
    int64_t *out_len = NULL, *out_head = NULL;
    Ev *heap = NULL;

    l1_line = malloc(sizeof(int64_t) * (size_t)(l1_sets_total * l1_ways));
    l1_mask = malloc(sizeof(int64_t) * (size_t)(l1_sets_total * l1_ways));
    l1_cnt = calloc((size_t)l1_sets_total, sizeof(int32_t));
    l2_line = malloc(sizeof(int64_t) * (size_t)(l2_sets * l2_ways));
    l2_mask = malloc(sizeof(int64_t) * (size_t)(l2_sets * l2_ways));
    l2_dirty = malloc(sizeof(int64_t) * (size_t)(l2_sets * l2_ways));
    l2_cnt = calloc((size_t)l2_sets, sizeof(int32_t));
    meta_tag = malloc(sizeof(int64_t) * (size_t)(meta_slots * (meta_ways + 1)));
    meta_cnt = calloc((size_t)meta_slots, sizeof(int32_t));
    next_free = calloc((size_t)channels, sizeof(double));
    sm_free = calloc((size_t)sm_count, sizeof(double));
    out = malloc(sizeof(double) * (size_t)(n_rows > 0 ? n_rows : 1));
    open_rows = malloc(sizeof(int64_t) * (size_t)(channels * banks));
    ips = malloc(sizeof(int64_t) * (size_t)(warp_count > 0 ? warp_count : 1));
    out_len = calloc((size_t)(warp_count > 0 ? warp_count : 1),
                     sizeof(int64_t));
    out_head = calloc((size_t)(warp_count > 0 ? warp_count : 1),
                      sizeof(int64_t));
    heap = malloc(sizeof(Ev) * (size_t)(warp_count > 0 ? warp_count : 1));
    if (!l1_line || !l1_mask || !l1_cnt || !l2_line || !l2_mask ||
        !l2_dirty || !l2_cnt || !meta_tag || !meta_cnt || !next_free ||
        !sm_free || !out || !open_rows || !ips || !out_len || !out_head ||
        !heap) {
        PyErr_NoMemory();
        goto cleanup_state;
    }
    for (int64_t k = 0; k < channels * banks; k++)
        open_rows[k] = -1;
    for (int64_t w = 0; w < warp_count; w++) {
        ips[w] = warp_start[w];
        heap[w] = (Ev){0.0, w, w};
    }
    Py_ssize_t heap_len = (Py_ssize_t)warp_count;

    double link_read_free = 0.0;
    double link_write_free = 0.0;
    double finish = 0.0;
    int64_t l1_hits = 0, l1_misses = 0;
    int64_t l2_hits = 0, l2_misses = 0;
    int64_t dram_bytes = 0;
    int64_t link_read_bytes = 0, link_write_bytes = 0;
    int64_t meta_hits = 0, meta_misses = 0;
    int64_t buddy_fills = 0, demand_fills = 0;
    int64_t sequence = warp_count;
    int64_t rmw_counter = 0;

    int has_event = 0;
    Ev ev;
    if (heap_len > 0) {
        ev = heap_pop(heap, &heap_len);
        has_event = 1;
    }
    while (has_event) {
        double ready = ev.ready;
        int64_t w = ev.w;
        int64_t i = ips[w];
        if (i == warp_start[w + 1]) {
            int64_t head = out_head[w];
            int64_t base = warp_start[w];
            if (out_len[w] > head) {
                double last = out[base + head];
                for (int64_t k = head + 1; k < out_len[w]; k++)
                    if (out[base + k] > last)
                        last = out[base + k];
                if (last > finish)
                    finish = last;
            }
            if (ready > finish)
                finish = ready;
            if (record) {
                tk[tidx] = 8;
                tw[tidx] = (int32_t)w;
                tidx++;
            }
            if (heap_len > 0) {
                ev = heap_pop(heap, &heap_len);
            } else {
                has_event = 0;
            }
            continue;
        }
        ips[w] = i + 1;
        int64_t sm = warp_sm[w];
        double free_t = sm_free[sm];
        double issue = ready > free_t ? ready : free_t;
        int64_t code = codes[i];
        double next_ready = 0.0;

        if (code == 0) { /* _COMPUTE */
            next_ready = issue + busy_col[i];
            sm_free[sm] = next_ready;
            if (record) {
                tk[tidx] = 0;
                tw[tidx] = (int32_t)w;
                tsm[tidx] = (int32_t)sm;
                tf0[tidx] = busy_col[i];
                tidx++;
            }
        } else if (code == 1) { /* _LOAD */
            sm_free[sm] = issue + interval;
            int64_t lid = lid_a[i];
            int64_t msk = mask_a[i];
            int64_t flat1 = l1flat_a[i];
            int64_t s2 = l2set_a[i];
            int64_t *d1_line = l1_line + flat1 * l1_ways;
            int64_t *d1_mask = l1_mask + flat1 * l1_ways;
            int32_t c1 = l1_cnt[flat1];
            Py_ssize_t j1 = lru_find(d1_line, c1, lid);
            int64_t e1 = j1 >= 0 ? d1_mask[j1] : 0;
            double done;
            if (j1 >= 0 && (e1 & msk) == msk) {
                l1_hits++;
                lru_touch(d1_line, d1_mask, NULL, c1, j1, e1);
                done = issue + l1_lat;
                if (record) {
                    tk[tidx] = 1;
                    tw[tidx] = (int32_t)w;
                    tsm[tidx] = (int32_t)sm;
                    tf0[tidx] = l1_lat;
                    tidx++;
                }
            } else {
                l1_misses++;
                int64_t *d2_line = l2_line + s2 * l2_ways;
                int64_t *d2_mask = l2_mask + s2 * l2_ways;
                int64_t *d2_dirty = l2_dirty + s2 * l2_ways;
                int32_t c2 = l2_cnt[s2];
                Py_ssize_t j2 = lru_find(d2_line, c2, lid);
                int64_t e2 = j2 >= 0 ? d2_mask[j2] : 0;
                if (j2 >= 0 && (e2 & msk) == msk) {
                    l2_hits++;
                    lru_touch(d2_line, d2_mask, d2_dirty, c2, j2, e2);
                    done = issue + l2_lat;
                    if (record) {
                        tk[tidx] = 1;
                        tw[tidx] = (int32_t)w;
                        tsm[tidx] = (int32_t)sm;
                        tf0[tidx] = l2_lat;
                        tidx++;
                    }
                } else {
                    l2_misses++;
                    double arrival = issue + l2_lat;
                    demand_fills++;
                    double r_serv = 0.0, r_mserv = 0.0, r_wbserv = 0.0;
                    int32_t r_ch = 0, r_mmiss = 0, r_mch = 0;
                    int32_t r_bnum = 0, r_wbch = 0, r_wbbnum = 0;
                    int64_t dev = dev_a[i];
                    int64_t fm = ideal ? msk : full_mask;
                    /* The sectored baseline requests even a
                     * zero-sector fill (degenerate traces): the
                     * oracle charges the channel overhead. */
                    if (dev != 0 || ideal) {
                        int64_t bk = bank_a[i];
                        int64_t rw = row_a[i];
                        int64_t ch = chan_a[i];
                        double serv;
                        if (open_rows[bk] == rw) {
                            serv = servh_a[i];
                        } else {
                            serv = servm_a[i];
                            open_rows[bk] = rw;
                        }
                        double cf = next_free[ch];
                        double start = cf > arrival ? cf : arrival;
                        double end = start + serv;
                        next_free[ch] = end;
                        dram_bytes += dev;
                        done = end + dram_lat;
                        r_serv = serv;
                        r_ch = (int32_t)ch;
                    } else {
                        done = arrival;
                    }
                    if (use_meta) {
                        int64_t mt = mtag_a[i];
                        int64_t ms = mslot_a[i];
                        int64_t *tags = meta_tag + ms * (meta_ways + 1);
                        int32_t mc_n = meta_cnt[ms];
                        Py_ssize_t jm = lru_find(tags, mc_n, mt);
                        double meta_ready;
                        if (jm >= 0) {
                            for (Py_ssize_t k = jm; k + 1 < mc_n; k++)
                                tags[k] = tags[k + 1];
                            tags[mc_n - 1] = mt;
                            meta_hits++;
                            meta_ready = arrival;
                        } else {
                            meta_misses++;
                            tags[mc_n] = mt;
                            mc_n++;
                            if (mc_n > meta_ways) {
                                for (int32_t k = 0; k + 1 < mc_n; k++)
                                    tags[k] = tags[k + 1];
                                mc_n--;
                            }
                            meta_cnt[ms] = mc_n;
                            int64_t mb = mbank_a[i];
                            int64_t mr = mrow_a[i];
                            int64_t mc = mchan_a[i];
                            double serv;
                            if (open_rows[mb] == mr) {
                                serv = meta_serv_hit;
                            } else {
                                serv = meta_serv_miss;
                                open_rows[mb] = mr;
                            }
                            double cf = next_free[mc];
                            double start = cf > arrival ? cf : arrival;
                            double end = start + serv;
                            next_free[mc] = end;
                            dram_bytes += meta_line_bytes;
                            meta_ready = end + dram_lat;
                            if (meta_ready > done)
                                done = meta_ready;
                            r_mmiss = 1;
                            r_mserv = serv;
                            r_mch = (int32_t)mc;
                        }
                        int64_t bud = bud_a[i];
                        if (bud != 0) {
                            int64_t bnum = bnum_a[i];
                            double start = link_read_free > meta_ready
                                               ? link_read_free
                                               : meta_ready;
                            double end = start + (double)bnum / link_bpc;
                            link_read_free = end;
                            link_read_bytes += bud;
                            buddy_fills++;
                            double t = end + link_lat;
                            if (t > done)
                                done = t;
                            r_bnum = (int32_t)bnum;
                        }
                    }
                    /* Install (full line for compressed fills). */
                    if (j2 >= 0) {
                        lru_touch(d2_line, d2_mask, d2_dirty, c2, j2,
                                  e2 | fm);
                    } else {
                        int64_t victim, dirty_mask;
                        if (lru_insert(d2_line, d2_mask, d2_dirty,
                                       &l2_cnt[s2], l2_ways, lid, fm, 0,
                                       &victim, &dirty_mask) &&
                            dirty_mask != 0) {
                            /* Writeback (dirty eviction). */
                            int64_t num;
                            double serv;
                            if (ideal) {
                                num = wb_ideal_bytes[dirty_mask];
                                serv = wb_ideal_serv[dirty_mask];
                            } else {
                                int64_t ventry = victim % entries;
                                num = wb_dev[ventry];
                                serv = wb_serv[ventry];
                            }
                            if (num != 0) {
                                int64_t vch = victim % channels;
                                int64_t vrow =
                                    victim * line_bytes / row_bytes;
                                int64_t vbk = vch * banks + vrow % banks;
                                if (open_rows[vbk] == vrow) {
                                    serv = serv + row_hit_ov;
                                } else {
                                    serv = serv + row_miss_ov;
                                    open_rows[vbk] = vrow;
                                }
                                double vf = next_free[vch];
                                double vstart =
                                    vf > arrival ? vf : arrival;
                                next_free[vch] = vstart + serv;
                                dram_bytes += num;
                                r_wbserv = serv;
                                r_wbch = (int32_t)vch;
                            }
                            if (use_meta) {
                                int64_t ventry = victim % entries;
                                int64_t vbud = wb_bud[ventry];
                                if (vbud != 0) {
                                    double vstart =
                                        link_write_free > arrival
                                            ? link_write_free
                                            : arrival;
                                    link_write_free =
                                        vstart +
                                        (double)wb_bnum[ventry] /
                                            link_bpc;
                                    link_write_bytes += vbud;
                                    r_wbbnum = (int32_t)wb_bnum[ventry];
                                }
                            }
                        }
                    }
                    done = done + fill_tail;
                    if (record) {
                        tk[tidx] = 2;
                        tw[tidx] = (int32_t)w;
                        tsm[tidx] = (int32_t)sm;
                        tf0[tidx] = r_serv;
                        tf1[tidx] = r_mserv;
                        tf2[tidx] = r_wbserv;
                        ti0[tidx] = r_ch;
                        ti1[tidx] = r_mmiss;
                        ti2[tidx] = r_mch;
                        ti3[tidx] = r_bnum;
                        ti4[tidx] = r_wbch;
                        ti5[tidx] = r_wbbnum;
                        tidx++;
                    }
                }
                /* L1 fill (never dirty; evictions are silent). */
                if (j1 >= 0) {
                    lru_touch(d1_line, d1_mask, NULL, c1, j1, e1 | msk);
                } else {
                    int64_t victim, vd;
                    lru_insert(d1_line, d1_mask, NULL, &l1_cnt[flat1],
                               l1_ways, lid, msk, 0, &victim, &vd);
                }
            }
            int64_t base = warp_start[w];
            out[base + out_len[w]] = done;
            out_len[w]++;
            int64_t head = out_head[w];
            if (out_len[w] - head >= warp_mlp[w]) {
                next_ready = out[base + head];
                out_head[w] = head + 1;
            } else {
                next_ready = issue + interval;
            }
        } else if (code == 2 || code == 5) { /* _STORE / _STORE_RMW */
            sm_free[sm] = issue + interval;
            int64_t lid = lid_a[i];
            int64_t msk = mask_a[i];
            int64_t s2 = l2set_a[i];
            int32_t r_fill = 0;
            double r_serv = 0.0, r_mserv = 0.0, r_wbserv = 0.0;
            int32_t r_ch = 0, r_mmiss = 0, r_mch = 0;
            int32_t r_bnum = 0, r_wbch = 0, r_wbbnum = 0;
            int64_t *d2_line = l2_line + s2 * l2_ways;
            int64_t *d2_mask = l2_mask + s2 * l2_ways;
            int64_t *d2_dirty = l2_dirty + s2 * l2_ways;
            if (code == 5) {
                /* Partial store into a compressed entry: every fourth
                 * pays the read-modify-write fetch unless the line is
                 * fully resident.  This is the load-miss fill at
                 * arrival ``issue``; the completion time is discarded
                 * because stores do not stall the warp. */
                rmw_counter++;
                if (rmw_counter % 4 == 0) {
                    int32_t c2 = l2_cnt[s2];
                    Py_ssize_t j2 = lru_find(d2_line, c2, lid);
                    int64_t e2 = j2 >= 0 ? d2_mask[j2] : 0;
                    if (j2 >= 0 && (e2 & full_mask) == full_mask) {
                        l2_hits++;
                        lru_touch(d2_line, d2_mask, d2_dirty, c2, j2, e2);
                    } else {
                        l2_misses++;
                        demand_fills++;
                        r_fill = 1;
                        int64_t dev = dev_a[i];
                        int64_t fm = ideal ? msk : full_mask;
                        if (dev != 0) {
                            int64_t bk = bank_a[i];
                            int64_t rw = row_a[i];
                            int64_t ch = chan_a[i];
                            double serv;
                            if (open_rows[bk] == rw) {
                                serv = servh_a[i];
                            } else {
                                serv = servm_a[i];
                                open_rows[bk] = rw;
                            }
                            double cf = next_free[ch];
                            double start = cf > issue ? cf : issue;
                            next_free[ch] = start + serv;
                            dram_bytes += dev;
                            r_serv = serv;
                            r_ch = (int32_t)ch;
                        }
                        if (use_meta) {
                            double meta_ready = issue;
                            int64_t mt = mtag_a[i];
                            int64_t ms = mslot_a[i];
                            int64_t *tags =
                                meta_tag + ms * (meta_ways + 1);
                            int32_t mc_n = meta_cnt[ms];
                            Py_ssize_t jm = lru_find(tags, mc_n, mt);
                            if (jm >= 0) {
                                for (Py_ssize_t k = jm; k + 1 < mc_n;
                                     k++)
                                    tags[k] = tags[k + 1];
                                tags[mc_n - 1] = mt;
                                meta_hits++;
                            } else {
                                meta_misses++;
                                tags[mc_n] = mt;
                                mc_n++;
                                if (mc_n > meta_ways) {
                                    for (int32_t k = 0; k + 1 < mc_n;
                                         k++)
                                        tags[k] = tags[k + 1];
                                    mc_n--;
                                }
                                meta_cnt[ms] = mc_n;
                                int64_t mb = mbank_a[i];
                                int64_t mr = mrow_a[i];
                                int64_t mc = mchan_a[i];
                                double serv;
                                if (open_rows[mb] == mr) {
                                    serv = meta_serv_hit;
                                } else {
                                    serv = meta_serv_miss;
                                    open_rows[mb] = mr;
                                }
                                double cf = next_free[mc];
                                double start = cf > issue ? cf : issue;
                                double end = start + serv;
                                next_free[mc] = end;
                                dram_bytes += meta_line_bytes;
                                meta_ready = end + dram_lat;
                                r_mmiss = 1;
                                r_mserv = serv;
                                r_mch = (int32_t)mc;
                            }
                            int64_t bud = bud_a[i];
                            if (bud != 0) {
                                int64_t bnum = bnum_a[i];
                                double start =
                                    link_read_free > meta_ready
                                        ? link_read_free
                                        : meta_ready;
                                link_read_free =
                                    start + (double)bnum / link_bpc;
                                link_read_bytes += bud;
                                buddy_fills++;
                                r_bnum = (int32_t)bnum;
                            }
                        }
                        /* Install the whole line. */
                        if (j2 >= 0) {
                            lru_touch(d2_line, d2_mask, d2_dirty, c2,
                                      j2, e2 | fm);
                        } else {
                            int64_t victim, dirty_mask;
                            if (lru_insert(d2_line, d2_mask, d2_dirty,
                                           &l2_cnt[s2], l2_ways, lid,
                                           fm, 0, &victim,
                                           &dirty_mask) &&
                                dirty_mask != 0) {
                                /* Writeback (RMW is only taken in the
                                 * compressed modes). */
                                int64_t ventry = victim % entries;
                                int64_t num = wb_dev[ventry];
                                double serv = wb_serv[ventry];
                                if (num != 0) {
                                    int64_t vch = victim % channels;
                                    int64_t vrow =
                                        victim * line_bytes / row_bytes;
                                    int64_t vbk =
                                        vch * banks + vrow % banks;
                                    if (open_rows[vbk] == vrow) {
                                        serv = serv + row_hit_ov;
                                    } else {
                                        serv = serv + row_miss_ov;
                                        open_rows[vbk] = vrow;
                                    }
                                    double vf = next_free[vch];
                                    double vstart =
                                        vf > issue ? vf : issue;
                                    next_free[vch] = vstart + serv;
                                    dram_bytes += num;
                                    r_wbserv = serv;
                                    r_wbch = (int32_t)vch;
                                }
                                if (use_meta) {
                                    int64_t vbud = wb_bud[ventry];
                                    if (vbud != 0) {
                                        double vstart =
                                            link_write_free > issue
                                                ? link_write_free
                                                : issue;
                                        link_write_free =
                                            vstart +
                                            (double)wb_bnum[ventry] /
                                                link_bpc;
                                        link_write_bytes += vbud;
                                        r_wbbnum =
                                            (int32_t)wb_bnum[ventry];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            /* The store itself (fresh probe: the RMW fill above may
             * have changed the set). */
            {
                int32_t c2 = l2_cnt[s2];
                Py_ssize_t j2 = lru_find(d2_line, c2, lid);
                if (j2 >= 0) {
                    int64_t e2 = d2_mask[j2];
                    lru_touch(d2_line, d2_mask, d2_dirty, c2, j2,
                              e2 | msk);
                    d2_dirty[c2 - 1] |= msk;
                } else {
                    int64_t victim, dirty_mask;
                    if (lru_insert(d2_line, d2_mask, d2_dirty,
                                   &l2_cnt[s2], l2_ways, lid, msk, msk,
                                   &victim, &dirty_mask) &&
                        dirty_mask != 0) {
                        /* Writeback (dirty eviction). */
                        int64_t num;
                        double serv;
                        if (ideal) {
                            num = wb_ideal_bytes[dirty_mask];
                            serv = wb_ideal_serv[dirty_mask];
                        } else {
                            int64_t ventry = victim % entries;
                            num = wb_dev[ventry];
                            serv = wb_serv[ventry];
                        }
                        if (num != 0) {
                            int64_t vch = victim % channels;
                            int64_t vrow =
                                victim * line_bytes / row_bytes;
                            int64_t vbk = vch * banks + vrow % banks;
                            if (open_rows[vbk] == vrow) {
                                serv = serv + row_hit_ov;
                            } else {
                                serv = serv + row_miss_ov;
                                open_rows[vbk] = vrow;
                            }
                            double vf = next_free[vch];
                            double vstart = vf > issue ? vf : issue;
                            next_free[vch] = vstart + serv;
                            dram_bytes += num;
                            r_wbserv = serv;
                            r_wbch = (int32_t)vch;
                        }
                        if (use_meta) {
                            int64_t ventry = victim % entries;
                            int64_t vbud = wb_bud[ventry];
                            if (vbud != 0) {
                                double vstart =
                                    link_write_free > issue
                                        ? link_write_free
                                        : issue;
                                link_write_free =
                                    vstart +
                                    (double)wb_bnum[ventry] / link_bpc;
                                link_write_bytes += vbud;
                                r_wbbnum = (int32_t)wb_bnum[ventry];
                            }
                        }
                    }
                }
            }
            next_ready = issue + interval;
            if (record) {
                if (r_fill) {
                    tk[tidx] = 6;
                    tw[tidx] = (int32_t)w;
                    tsm[tidx] = (int32_t)sm;
                    tf0[tidx] = r_serv;
                    tf1[tidx] = r_mserv;
                    tf2[tidx] = r_wbserv;
                    ti0[tidx] = r_ch;
                    ti1[tidx] = r_mmiss;
                    ti2[tidx] = r_mch;
                    ti3[tidx] = r_bnum;
                    ti4[tidx] = r_wbch;
                    ti5[tidx] = r_wbbnum;
                } else if (r_wbserv != 0.0 || r_wbbnum != 0) {
                    tk[tidx] = 5;
                    tw[tidx] = (int32_t)w;
                    tsm[tidx] = (int32_t)sm;
                    tf2[tidx] = r_wbserv;
                    ti4[tidx] = r_wbch;
                    ti5[tidx] = r_wbbnum;
                } else {
                    tk[tidx] = 4;
                    tw[tidx] = (int32_t)w;
                    tsm[tidx] = (int32_t)sm;
                }
                tidx++;
            }
        } else if (code == 3) { /* _HOST_LOAD */
            sm_free[sm] = issue + interval;
            int64_t hbytes = hbytes_a[i];
            int64_t hnum = hnum_a[i];
            double start =
                link_read_free > issue ? link_read_free : issue;
            double end = start + (double)hnum / link_bpc;
            link_read_free = end;
            link_read_bytes += hbytes;
            double done = end + link_lat;
            if (record) {
                tk[tidx] = 3;
                tw[tidx] = (int32_t)w;
                tsm[tidx] = (int32_t)sm;
                ti0[tidx] = (int32_t)hnum;
                tidx++;
            }
            int64_t base = warp_start[w];
            out[base + out_len[w]] = done;
            out_len[w]++;
            int64_t head = out_head[w];
            if (out_len[w] - head >= warp_mlp[w]) {
                next_ready = out[base + head];
                out_head[w] = head + 1;
            } else {
                next_ready = issue + interval;
            }
        } else { /* _HOST_STORE: fire-and-forget remote write */
            sm_free[sm] = issue + interval;
            int64_t hbytes = hbytes_a[i];
            int64_t hnum = hnum_a[i];
            double start =
                link_write_free > issue ? link_write_free : issue;
            link_write_free = start + (double)hnum / link_bpc;
            link_write_bytes += hbytes;
            next_ready = issue + interval;
            if (record) {
                tk[tidx] = 7;
                tw[tidx] = (int32_t)w;
                tsm[tidx] = (int32_t)sm;
                ti0[tidx] = (int32_t)hnum;
                tidx++;
            }
        }

        sequence++;
        Ev cont = {next_ready, sequence, w};
        if (heap_len > 0) {
            /* A continuation that precedes the whole heap is the
             * next event by construction — skip the sift. */
            if (ev_lt(&cont, &heap[0])) {
                ev = cont;
            } else {
                ev = heap[0];
                heap[0] = cont;
                heap_siftdown(heap, heap_len, 0);
            }
        } else {
            ev = cont;
        }
    }

    /* drain */
    {
        double cycles = finish;
        for (int64_t c = 0; c < channels; c++)
            if (next_free[c] > cycles)
                cycles = next_free[c];
        if (link_read_free > cycles)
            cycles = link_read_free;
        if (link_write_free > cycles)
            cycles = link_write_free;
        for (int64_t s = 0; s < sm_count; s++)
            if (sm_free[s] > cycles)
                cycles = sm_free[s];
        result = Py_BuildValue(
            "(dLLLLLLLLLLL)", cycles,
            (long long)l1_hits, (long long)l1_misses,
            (long long)l2_hits, (long long)l2_misses,
            (long long)dram_bytes,
            (long long)link_read_bytes, (long long)link_write_bytes,
            (long long)meta_hits, (long long)meta_misses,
            (long long)buddy_fills, (long long)demand_fills);
    }

cleanup_state:
    free(l1_line); free(l1_mask); free(l1_cnt);
    free(l2_line); free(l2_mask); free(l2_dirty); free(l2_cnt);
    free(meta_tag); free(meta_cnt);
    free(next_free); free(sm_free); free(out);
    free(open_rows); free(ips); free(out_len); free(out_head);
    free(heap);
cleanup:
    release_bufs(bufs, A_COUNT);
    release_bufs(tbufs, 12);
    return result;
}

/* ------------------------------------------------------------------ */
/* replay_many(tape_cols, warp_mlp, iscalars, fscalars_packs)         */
/*     -> tuple of per-link cycles                                    */
/*                                                                    */
/* Batched twin of _replay_py: one pass over the tape advances every  */
/* requested link together.  Control flow (branches, the MLP pop)     */
/* depends only on link-invariant tape payloads, so it is hoisted to  */
/* the event level; the per-link clock state lives in link-minor      */
/* arrays (state[slot * n_links + l]) walked by a tight inner loop    */
/* over the RF_* hot scalars.  Each lane performs exactly the IEEE    */
/* double ops of _replay_py at that link, in the same order, so each  */
/* link's result is bit-identical to the fallback's and independent   */
/* of which other links share the pass.                               */
/* ------------------------------------------------------------------ */
static PyObject *
replay_many(PyObject *self, PyObject *args)
{
    PyObject *tape, *mlp_obj, *iscalars_o, *fpacks_o;
    if (!PyArg_ParseTuple(args, "OOOO", &tape, &mlp_obj, &iscalars_o,
                          &fpacks_o))
        return NULL;

    int64_t isc[RI_COUNT];
    if (unpack_i64(iscalars_o, isc, RI_COUNT) < 0)
        return NULL;
    if (!PyTuple_Check(fpacks_o)) {
        PyErr_SetString(PyExc_TypeError,
                        "fscalars_packs must be a tuple of RF_* tuples");
        return NULL;
    }
    const Py_ssize_t n_links = PyTuple_Size(fpacks_o);
    if (n_links == 0)
        return PyTuple_New(0);

    Buf tbufs[12];
    for (Py_ssize_t k = 0; k < 12; k++)
        tbufs[k].has = 0;
    Buf mlp_buf;
    mlp_buf.has = 0;

    PyObject *result = NULL;
    double *fsc = NULL;
    double *next_free = NULL, *sm_free = NULL, *ready = NULL, *out = NULL;
    double *link_read_free = NULL, *link_write_free = NULL, *finish = NULL;
    int64_t *out_base = NULL, *out_len = NULL, *out_head = NULL;

    fsc = malloc(sizeof(double) * (size_t)n_links * RF_COUNT);
    if (!fsc) {
        PyErr_NoMemory();
        goto cleanup;
    }
    for (Py_ssize_t l = 0; l < n_links; l++) {
        PyObject *pack = PyTuple_GetItem(fpacks_o, l);
        if (pack == NULL ||
            unpack_f64(pack, fsc + l * RF_COUNT, RF_COUNT) < 0)
            goto cleanup;
    }

    for (Py_ssize_t k = 0; k < 12; k++) {
        PyObject *item = PyTuple_GetItem(tape, k);
        if (item == NULL || get_buf(item, &tbufs[k], 0) < 0)
            goto cleanup;
    }
    if (get_buf(mlp_obj, &mlp_buf, 0) < 0)
        goto cleanup;

    const int8_t *tk = (const int8_t *)tbufs[0].view.buf;
    const int32_t *tw = (const int32_t *)tbufs[1].view.buf;
    const int32_t *tsm = (const int32_t *)tbufs[2].view.buf;
    const double *tf0 = (const double *)tbufs[3].view.buf;
    const double *tf1 = (const double *)tbufs[4].view.buf;
    const double *tf2 = (const double *)tbufs[5].view.buf;
    const int32_t *ti0 = (const int32_t *)tbufs[6].view.buf;
    const int32_t *ti1 = (const int32_t *)tbufs[7].view.buf;
    const int32_t *ti2 = (const int32_t *)tbufs[8].view.buf;
    const int32_t *ti3 = (const int32_t *)tbufs[9].view.buf;
    const int32_t *ti4 = (const int32_t *)tbufs[10].view.buf;
    const int32_t *ti5 = (const int32_t *)tbufs[11].view.buf;
    const int64_t *warp_mlp = (const int64_t *)mlp_buf.view.buf;
    const Py_ssize_t n_events = tbufs[0].view.len;

    const int64_t warp_count = isc[RI_WARP_COUNT];
    const int64_t sm_count = isc[RI_SM_COUNT];
    const int64_t channels = isc[RI_CHANNELS];

    next_free = calloc((size_t)channels * n_links, sizeof(double));
    sm_free = calloc((size_t)sm_count * n_links, sizeof(double));
    ready = calloc((size_t)(warp_count > 0 ? warp_count : 1) * n_links,
                   sizeof(double));
    link_read_free = calloc((size_t)n_links, sizeof(double));
    link_write_free = calloc((size_t)n_links, sizeof(double));
    finish = calloc((size_t)n_links, sizeof(double));
    out_base = calloc((size_t)(warp_count > 0 ? warp_count : 1),
                      sizeof(int64_t));
    out_len = calloc((size_t)(warp_count > 0 ? warp_count : 1),
                     sizeof(int64_t));
    out_head = calloc((size_t)(warp_count > 0 ? warp_count : 1),
                      sizeof(int64_t));
    if (!next_free || !sm_free || !ready || !link_read_free ||
        !link_write_free || !finish || !out_base || !out_len ||
        !out_head) {
        PyErr_NoMemory();
        goto cleanup;
    }
    /* Partition one flat completion array by each warp's number of
     * completing events (kinds 1/2/3); one lane block per event. */
    Py_ssize_t total_out = 0;
    for (Py_ssize_t e = 0; e < n_events; e++) {
        int8_t kind = tk[e];
        if (kind == 1 || kind == 2 || kind == 3) {
            out_base[tw[e]]++;
            total_out++;
        }
    }
    {
        int64_t acc = 0;
        for (int64_t w = 0; w < warp_count; w++) {
            int64_t c = out_base[w];
            out_base[w] = acc;
            acc += c;
        }
    }
    out = malloc(sizeof(double) *
                 (size_t)(total_out > 0 ? total_out : 1) * n_links);
    if (!out) {
        PyErr_NoMemory();
        goto cleanup;
    }

    for (Py_ssize_t e = 0; e < n_events; e++) {
        int8_t kind = tk[e];
        int64_t w = tw[e];
        int64_t sm = tsm[e];
        if (kind == 8) { /* warp end */
            int64_t head = out_head[w];
            int64_t base = out_base[w];
            for (Py_ssize_t l = 0; l < n_links; l++) {
                if (out_len[w] > head) {
                    double last = out[(base + head) * n_links + l];
                    for (int64_t k = head + 1; k < out_len[w]; k++) {
                        double v = out[(base + k) * n_links + l];
                        if (v > last)
                            last = v;
                    }
                    if (last > finish[l])
                        finish[l] = last;
                }
                if (ready[w * n_links + l] > finish[l])
                    finish[l] = ready[w * n_links + l];
            }
            continue;
        }
        if (kind == 0) { /* compute */
            double busy = tf0[e];
            for (Py_ssize_t l = 0; l < n_links; l++) {
                double r = ready[w * n_links + l];
                double free_t = sm_free[sm * n_links + l];
                double issue = r > free_t ? r : free_t;
                double t = issue + busy;
                sm_free[sm * n_links + l] = t;
                ready[w * n_links + l] = t;
            }
            continue;
        }
        if (kind == 1) { /* load, cache hit */
            int64_t base = out_base[w];
            int64_t pos = out_len[w];
            int64_t head = out_head[w];
            int pop = (pos + 1 - head >= warp_mlp[w]);
            double lat = tf0[e];
            for (Py_ssize_t l = 0; l < n_links; l++) {
                const double *f = fsc + l * RF_COUNT;
                double r = ready[w * n_links + l];
                double free_t = sm_free[sm * n_links + l];
                double issue = r > free_t ? r : free_t;
                sm_free[sm * n_links + l] = issue + f[RF_INTERVAL];
                out[(base + pos) * n_links + l] = issue + lat;
                if (pop)
                    ready[w * n_links + l] =
                        out[(base + head) * n_links + l];
                else
                    ready[w * n_links + l] = issue + f[RF_INTERVAL];
            }
            out_len[w] = pos + 1;
            if (pop)
                out_head[w] = head + 1;
        } else if (kind == 2) { /* load, demand fill */
            int64_t base = out_base[w];
            int64_t pos = out_len[w];
            int64_t head = out_head[w];
            int pop = (pos + 1 - head >= warp_mlp[w]);
            double serv = tf0[e];
            double mserv = tf1[e];
            double wbserv = tf2[e];
            int64_t ch = ti0[e];
            int64_t mmiss = ti1[e];
            int64_t mch = ti2[e];
            int64_t bnum = ti3[e];
            int64_t wbch = ti4[e];
            int64_t wbbnum = ti5[e];
            for (Py_ssize_t l = 0; l < n_links; l++) {
                const double *f = fsc + l * RF_COUNT;
                double r = ready[w * n_links + l];
                double free_t = sm_free[sm * n_links + l];
                double issue = r > free_t ? r : free_t;
                sm_free[sm * n_links + l] = issue + f[RF_INTERVAL];
                double arrival = issue + f[RF_ARRIVAL_LAT];
                double done;
                if (serv != 0.0) {
                    double cf = next_free[ch * n_links + l];
                    double start = cf > arrival ? cf : arrival;
                    double end = start + serv;
                    next_free[ch * n_links + l] = end;
                    done = end + f[RF_DRAM_LAT];
                } else {
                    done = arrival;
                }
                double meta_ready = arrival;
                if (mmiss) {
                    double cf = next_free[mch * n_links + l];
                    double start = cf > arrival ? cf : arrival;
                    double end = start + mserv;
                    next_free[mch * n_links + l] = end;
                    meta_ready = end + f[RF_DRAM_LAT];
                    if (meta_ready > done)
                        done = meta_ready;
                }
                if (bnum) {
                    double start = link_read_free[l] > meta_ready
                                       ? link_read_free[l]
                                       : meta_ready;
                    double end = start + (double)bnum / f[RF_LINK_BPC];
                    link_read_free[l] = end;
                    double t = end + f[RF_LINK_LAT];
                    if (t > done)
                        done = t;
                }
                if (wbserv != 0.0) {
                    double cf = next_free[wbch * n_links + l];
                    double start = cf > arrival ? cf : arrival;
                    next_free[wbch * n_links + l] = start + wbserv;
                }
                if (wbbnum) {
                    double start = link_write_free[l] > arrival
                                       ? link_write_free[l]
                                       : arrival;
                    link_write_free[l] =
                        start + (double)wbbnum / f[RF_LINK_BPC];
                }
                done = done + f[RF_FILL_TAIL];
                out[(base + pos) * n_links + l] = done;
                if (pop)
                    ready[w * n_links + l] =
                        out[(base + head) * n_links + l];
                else
                    ready[w * n_links + l] = issue + f[RF_INTERVAL];
            }
            out_len[w] = pos + 1;
            if (pop)
                out_head[w] = head + 1;
        } else if (kind == 4) { /* store, no memory-system timing */
            for (Py_ssize_t l = 0; l < n_links; l++) {
                const double *f = fsc + l * RF_COUNT;
                double r = ready[w * n_links + l];
                double free_t = sm_free[sm * n_links + l];
                double issue = r > free_t ? r : free_t;
                sm_free[sm * n_links + l] = issue + f[RF_INTERVAL];
                ready[w * n_links + l] = issue + f[RF_INTERVAL];
            }
        } else if (kind == 5) { /* store with dirty-eviction writeback */
            double wbserv = tf2[e];
            int64_t wbch = ti4[e];
            int64_t wbbnum = ti5[e];
            for (Py_ssize_t l = 0; l < n_links; l++) {
                const double *f = fsc + l * RF_COUNT;
                double r = ready[w * n_links + l];
                double free_t = sm_free[sm * n_links + l];
                double issue = r > free_t ? r : free_t;
                sm_free[sm * n_links + l] = issue + f[RF_INTERVAL];
                if (wbserv != 0.0) {
                    double cf = next_free[wbch * n_links + l];
                    double start = cf > issue ? cf : issue;
                    next_free[wbch * n_links + l] = start + wbserv;
                }
                if (wbbnum) {
                    double start = link_write_free[l] > issue
                                       ? link_write_free[l]
                                       : issue;
                    link_write_free[l] =
                        start + (double)wbbnum / f[RF_LINK_BPC];
                }
                ready[w * n_links + l] = issue + f[RF_INTERVAL];
            }
        } else if (kind == 6) { /* store with read-modify-write fill */
            double serv = tf0[e];
            double mserv = tf1[e];
            double wbserv = tf2[e];
            int64_t ch = ti0[e];
            int64_t mmiss = ti1[e];
            int64_t mch = ti2[e];
            int64_t bnum = ti3[e];
            int64_t wbch = ti4[e];
            int64_t wbbnum = ti5[e];
            for (Py_ssize_t l = 0; l < n_links; l++) {
                const double *f = fsc + l * RF_COUNT;
                double r = ready[w * n_links + l];
                double free_t = sm_free[sm * n_links + l];
                double issue = r > free_t ? r : free_t;
                sm_free[sm * n_links + l] = issue + f[RF_INTERVAL];
                if (serv != 0.0) {
                    double cf = next_free[ch * n_links + l];
                    double start = cf > issue ? cf : issue;
                    next_free[ch * n_links + l] = start + serv;
                }
                double meta_ready = issue;
                if (mmiss) {
                    double cf = next_free[mch * n_links + l];
                    double start = cf > issue ? cf : issue;
                    double end = start + mserv;
                    next_free[mch * n_links + l] = end;
                    meta_ready = end + f[RF_DRAM_LAT];
                }
                if (bnum) {
                    double start = link_read_free[l] > meta_ready
                                       ? link_read_free[l]
                                       : meta_ready;
                    link_read_free[l] =
                        start + (double)bnum / f[RF_LINK_BPC];
                }
                if (wbserv != 0.0) {
                    double cf = next_free[wbch * n_links + l];
                    double start = cf > issue ? cf : issue;
                    next_free[wbch * n_links + l] = start + wbserv;
                }
                if (wbbnum) {
                    double start = link_write_free[l] > issue
                                       ? link_write_free[l]
                                       : issue;
                    link_write_free[l] =
                        start + (double)wbbnum / f[RF_LINK_BPC];
                }
                ready[w * n_links + l] = issue + f[RF_INTERVAL];
            }
        } else if (kind == 3) { /* host load over the link */
            int64_t base = out_base[w];
            int64_t pos = out_len[w];
            int64_t head = out_head[w];
            int pop = (pos + 1 - head >= warp_mlp[w]);
            int64_t hnum = ti0[e];
            for (Py_ssize_t l = 0; l < n_links; l++) {
                const double *f = fsc + l * RF_COUNT;
                double r = ready[w * n_links + l];
                double free_t = sm_free[sm * n_links + l];
                double issue = r > free_t ? r : free_t;
                sm_free[sm * n_links + l] = issue + f[RF_INTERVAL];
                double start = link_read_free[l] > issue
                                   ? link_read_free[l]
                                   : issue;
                double end = start + (double)hnum / f[RF_LINK_BPC];
                link_read_free[l] = end;
                out[(base + pos) * n_links + l] = end + f[RF_LINK_LAT];
                if (pop)
                    ready[w * n_links + l] =
                        out[(base + head) * n_links + l];
                else
                    ready[w * n_links + l] = issue + f[RF_INTERVAL];
            }
            out_len[w] = pos + 1;
            if (pop)
                out_head[w] = head + 1;
        } else { /* kind 7: host store over the link */
            int64_t hnum = ti0[e];
            for (Py_ssize_t l = 0; l < n_links; l++) {
                const double *f = fsc + l * RF_COUNT;
                double r = ready[w * n_links + l];
                double free_t = sm_free[sm * n_links + l];
                double issue = r > free_t ? r : free_t;
                sm_free[sm * n_links + l] = issue + f[RF_INTERVAL];
                double start = link_write_free[l] > issue
                                   ? link_write_free[l]
                                   : issue;
                link_write_free[l] =
                    start + (double)hnum / f[RF_LINK_BPC];
                ready[w * n_links + l] = issue + f[RF_INTERVAL];
            }
        }
    }

    result = PyTuple_New(n_links);
    if (result == NULL)
        goto cleanup;
    for (Py_ssize_t l = 0; l < n_links; l++) {
        double cycles = finish[l];
        for (int64_t c = 0; c < channels; c++)
            if (next_free[c * n_links + l] > cycles)
                cycles = next_free[c * n_links + l];
        if (link_read_free[l] > cycles)
            cycles = link_read_free[l];
        if (link_write_free[l] > cycles)
            cycles = link_write_free[l];
        for (int64_t s = 0; s < sm_count; s++)
            if (sm_free[s * n_links + l] > cycles)
                cycles = sm_free[s * n_links + l];
        PyObject *value = PyFloat_FromDouble(cycles);
        if (value == NULL) {
            Py_CLEAR(result);
            goto cleanup;
        }
        PyTuple_SET_ITEM(result, l, value);
    }

cleanup:
    free(fsc);
    free(next_free); free(sm_free); free(ready); free(out);
    free(link_read_free); free(link_write_free); free(finish);
    free(out_base); free(out_len); free(out_head);
    release_bufs(tbufs, 12);
    if (mlp_buf.has)
        PyBuffer_Release(&mlp_buf.view);
    return result;
}

static PyMethodDef event_core_methods[] = {
    {"run_exact", run_exact, METH_VARARGS,
     "run_exact(arrays, iscalars, fscalars, tape_cols_or_None) -> "
     "counter tuple"},
    {"replay_many", replay_many, METH_VARARGS,
     "replay_many(tape_cols, warp_mlp, iscalars, fscalars_packs) -> "
     "tuple of per-link cycles"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef event_core_module = {
    PyModuleDef_HEAD_INIT,
    "repro.gpusim._event_core_ext",
    "Compiled exact-order event core (see _event_core.py).",
    -1,
    event_core_methods,
};

PyMODINIT_FUNC
PyInit__event_core_ext(void)
{
    PyObject *m = PyModule_Create(&event_core_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "ABI", EXT_ABI) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
