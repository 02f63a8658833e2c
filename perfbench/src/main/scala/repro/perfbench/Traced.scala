package repro.perfbench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import repro.core._
import scala.collection.mutable

/** The traced run: `LoCEC.run`'s steps, in its order, called through each
  * layer's public functions with a span around every layer and sub-step.
  * Spark jobs are tagged with the layer's name, so the [[SparkMeter]]
  * attributes tasks to layers. This is the only code of the benchmark that
  * depends on the layers' signatures; the gated metrics use `LoCEC.run`. */
object Traced {

  /** The names of the layer spans, which together cover the pipeline. */
  val Layers: Seq[String] =
    Seq("ego_networks", "local_communities", "community_features",
      "community_classifier", "edge_labeler")

  final case class Result(edgePreds: DataFrame, inner: DataFrame,
                          assigns: Dataset[EgoAssign], wallSec: Double,
                          metrics: Seq[(String, Double)])

  def run(spark: SparkSession, in: Inputs, w: Workload, meter: SparkMeter): Result = {
    import spark.implicits._
    val sc = spark.sparkContext
    val p = w.params
    val m = mutable.LinkedHashMap.empty[String, Double]

    def time[T](key: String)(body: => T): T = {
      val t0 = System.nanoTime()
      val r = body
      m(key) = (System.nanoTime() - t0) / 1e9
      r
    }
    def layer[T](name: String)(body: => T): T = {
      sc.setJobGroup(name, name)
      try time(s"$name.wall_s")(body) finally sc.clearJobGroup()
    }
    def persisted[T](ds: Dataset[T]): (Dataset[T], Long) = {
      val cached = ds.persist(StorageLevel.MEMORY_AND_DISK)
      (cached, cached.count())
    }

    meter.take()
    val jvm0 = JvmSample.now()
    val t0 = System.nanoTime()

    // ---- Phase I ------------------------------------------------------
    val inner = layer("ego_networks") {
      val (i, rows) = persisted(EgoNetworks.egoInnerEdges(spark, in.edges))
      m("ego_networks.inner_rows") = rows.toDouble
      i
    }
    val assigns = layer("local_communities") {
      persisted(LocalCommunities.detect(spark, in.edges, p.gnPatienceFrac))._1
    }

    // ---- Phase II -----------------------------------------------------
    val (commFeats, comms) = layer("community_features") {
      persisted(CommunityFeatures.compute(spark, assigns, inner, in.interactions,
        in.userFeatures, p.k, p.interDims, p.featDims))
    }
    m("community_features.comms") = comms.toDouble

    val commPreds = layer("community_classifier") {
      val samples = time("community_classifier.samples_s") {
        val labeled = CommunityFeatures.labels(spark, commFeats, in.trainEdges).as[LabeledComm]
        commFeats
          .joinWith(labeled, commFeats("ego") === labeled("ego") &&
                             commFeats("comm") === labeled("comm"))
          .orderBy(col("_1.ego"), col("_1.comm"))
          .take(p.maxTrainCommunities)
          .map { case (cf, lc) => (cf, lc.label) }
          .toSeq
      }
      m("community_classifier.train_comms") = samples.size.toDouble
      val cpu0 = JvmSample.now().cpuNs
      val model = time("community_classifier.fit_s") {
        p.variant match {
          case LoCEC.Xgb => CommunityClassifier.trainXgb(samples, p.gbdt)
          case LoCEC.Cnn => CommunityClassifier.trainCnn(samples, p.cnn)
        }
      }
      m("community_classifier.fit_cpu_s") = (JvmSample.now().cpuNs - cpu0) / 1e9
      m("community_classifier.fit_per_epoch_s") = m("community_classifier.fit_s") / w.epochs
      val cp = time("community_classifier.classify_s") {
        persisted(CommunityClassifier.classify(spark, commFeats, model))._1
      }
      m("community_classifier.classify_comms_per_s") = comms / m("community_classifier.classify_s")
      cp
    }

    // ---- Phase III ----------------------------------------------------
    val target = in.edges.select("src", "dst")
    val candidates = target.union(in.trainEdges.select("src", "dst")).distinct()
    val edgePreds = layer("edge_labeler") {
      val allFeats = time("edge_labeler.features_s") {
        val (f, rows) = persisted(EdgeLabeler.features(spark, candidates, assigns, commPreds))
        m("edge_labeler.feature_rows") = rows.toDouble
        f
      }
      val trainFeats = time("edge_labeler.collect_s") {
        allFeats
          .join(in.trainEdges.select("src", "dst", "label"), Seq("src", "dst"))
          .select("feats", "label")
          .as[(Seq[Double], String)]
          .collect()
          .map { case (f, l) => (f.toArray, l) }
          .toSeq
      }
      val lr = time("edge_labeler.lr_fit_s")(EdgeLabeler.train(trainFeats, p.lr))
      time("edge_labeler.predict_s") {
        persisted(EdgeLabeler.predict(spark, allFeats.join(target, Seq("src", "dst")), lr))._1
      }
    }

    val wall = (System.nanoTime() - t0) / 1e9
    val jvm = JvmSample.now() - jvm0
    val snap = meter.take()
    m("edge_labeler.dropped_edges") = (candidates.count() - m("edge_labeler.feature_rows")).toDouble
    val spanMetrics = Layers.flatMap(l => snap.group(l).spanMetrics(l))
    val covered = Layers.map(l => m(s"$l.wall_s")).sum
    val metrics = m.toSeq ++ spanMetrics ++ snap.totals ++
      Seq("jvm.gc_s" -> jvm.gcMs / 1e3, "jvm.jit_s" -> jvm.jitMs / 1e3, "jvm.cpu_s" -> jvm.cpuNs / 1e9,
        "trace.wall_s" -> wall, "trace.uncovered_s" -> (wall - covered))
    Result(edgePreds, inner, assigns, wall, metrics)
  }

  /** Times `LocalCommunities.detectOne` once per ego, single-threaded, on
    * the ego networks the traced run built, and checks each result against
    * the distributed assignments. Returns the `girvan_newman.*` metrics, the
    * egos and communities counted, and the number of egos whose
    * communities differ. */
  def girvanNewman(spark: SparkSession, in: Inputs, r: Result,
                   patienceFrac: Double): (Seq[(String, Double)], Int) = {
    import spark.implicits._
    val friends = EgoNetworks.egoMembers(spark, in.edges).as[(Long, Long)].collect()
      .groupBy(_._1).map { case (ego, fs) => ego -> fs.map(_._2) }
    val innerEdges = r.inner.as[(Long, Long, Long)].collect()
      .groupBy(_._1).map { case (ego, es) => ego -> es.map(e => (e._2, e._3)).sorted.toSeq }
    val expected = r.assigns.collect().groupBy(_.ego)

    val egoMs = mutable.ArrayBuffer.empty[Double]
    var gt40Sec = 0.0
    var mismatched = 0
    friends.keys.toSeq.sorted.foreach { ego =>
      val fs = friends(ego)
      val t0 = System.nanoTime()
      val out = LocalCommunities.detectOne(ego, fs, innerEdges.getOrElse(ego, Seq.empty), patienceFrac)
      val sec = (System.nanoTime() - t0) / 1e9
      egoMs += sec * 1e3
      if (fs.length > 40) gt40Sec += sec
      if (out.sortBy(_.friend) != expected.getOrElse(ego, Array.empty[EgoAssign]).toSeq.sortBy(_.friend))
        mismatched += 1
    }
    val sorted = egoMs.toIndexedSeq.sorted
    val communities = expected.valuesIterator.map(_.map(_.comm).distinct.length).sum
    (Seq(
      "girvan_newman.ego_ms_p50" -> Main.percentile(sorted, 0.50),
      "girvan_newman.ego_ms_p99" -> Main.percentile(sorted, 0.99),
      "girvan_newman.ego_ms_max" -> sorted.last,
      "girvan_newman.kernel_s" -> sorted.sum / 1e3,
      "girvan_newman.kernel_s_gt40" -> gt40Sec,
      "local_communities.egos" -> expected.size.toDouble,
      "local_communities.communities" -> communities.toDouble), mismatched)
  }
}
