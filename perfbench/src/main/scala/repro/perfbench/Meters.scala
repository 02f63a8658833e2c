package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.{ListenerBusAccess, SparkContext, Success}
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Task-level Spark metrics, grouped by the job group (span name) that was
  * set when the task's job started. Tasks of untagged jobs get group "". */
final class SparkMeter(sc: SparkContext) extends SparkListener {
  import SparkMeter._

  private val stageGroup = mutable.Map.empty[Int, String]
  private val tasks = mutable.ArrayBuffer.empty[TaskRec]
  private var stages = 0

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    e.stageIds.foreach(s => stageGroup(s) = group.getOrElse(""))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val failed = e.reason != Success
    tasks += (if (m == null) TaskRec(stageGroup.getOrElse(e.stageId, ""), e.taskInfo.duration, 0, 0, 0, 0, 0, 0, failed)
      else TaskRec(stageGroup.getOrElse(e.stageId, ""), e.taskInfo.duration,
        m.executorRunTime, m.executorCpuTime, m.shuffleWriteMetrics.bytesWritten,
        m.shuffleReadMetrics.totalBytesRead, m.diskBytesSpilled, m.jvmGCTime, failed))
  }

  /** Everything recorded since the last call; waits for pending events. */
  def take(): Snapshot = {
    ListenerBusAccess.drain(sc)
    synchronized {
      val s = Snapshot(tasks.toVector, stages)
      tasks.clear(); stages = 0
      s
    }
  }
}

object SparkMeter {
  final case class TaskRec(group: String, durationMs: Long, runMs: Long, cpuNs: Long,
                           shuffleWrite: Long, shuffleRead: Long, spill: Long,
                           gcMs: Long, failed: Boolean)

  final case class Snapshot(tasks: Vector[TaskRec], stages: Int) {
    def shuffleWriteMb: Double = tasks.map(_.shuffleWrite).sum / 1e6

    def group(g: String): Snapshot = Snapshot(tasks.filter(_.group == g), 0)

    /** The per-span Spark metrics: `.tasks`, `.executor_s`, `.shuffle_mb`,
      * `.spill_mb`, `.failed_tasks`, `.task_skew` (max ÷ median task time). */
    def spanMetrics(prefix: String): Seq[(String, Double)] = {
      val durations = tasks.map(_.durationMs).sorted
      val skew = if (durations.isEmpty) 0.0
        else durations.last / math.max(1.0, durations(durations.length / 2).toDouble)
      Seq(
        s"$prefix.tasks" -> tasks.length.toDouble,
        s"$prefix.executor_s" -> tasks.map(_.runMs).sum / 1e3,
        s"$prefix.shuffle_mb" -> shuffleWriteMb,
        s"$prefix.spill_mb" -> tasks.map(_.spill).sum / 1e6,
        s"$prefix.failed_tasks" -> tasks.count(_.failed).toDouble,
        s"$prefix.task_skew" -> skew)
    }

    def totals: Seq[(String, Double)] = Seq(
      "spark.stages" -> stages.toDouble,
      "spark.tasks" -> tasks.length.toDouble,
      "spark.failed_tasks" -> tasks.count(_.failed).toDouble,
      "spark.executor_run_s" -> tasks.map(_.runMs).sum / 1e3,
      "spark.executor_cpu_s" -> tasks.map(_.cpuNs).sum / 1e9,
      "spark.shuffle_read_mb" -> tasks.map(_.shuffleRead).sum / 1e6,
      "spark.spill_mb" -> tasks.map(_.spill).sum / 1e6,
      "spark.gc_s" -> tasks.map(_.gcMs).sum / 1e3)
  }

  /** MB held by cached RDDs (memory plus disk). Call after [[SparkMeter.take]],
    * which waits for the block updates to reach the status store. */
  def cachedMb(sc: SparkContext): Double =
    sc.getRDDStorageInfo.map(r => r.memSize + r.diskSize).sum / 1e6
}

/** Process-wide JVM and host counters, read before and after an interval:
  * JIT compile time, GC time, process CPU time, CPU steal and Spark
  * code-generation compiles. None of them is gated; they explain the spread
  * of the timings. */
final case class JvmSample(jitMs: Long, gcMs: Long, cpuNs: Long, stealTicks: Long, codegen: Long) {
  def -(o: JvmSample): JvmSample =
    JvmSample(jitMs - o.jitMs, gcMs - o.gcMs, cpuNs - o.cpuNs, stealTicks - o.stealTicks, codegen - o.codegen)
}

object JvmSample {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def now(): JvmSample = JvmSample(
    ManagementFactory.getCompilationMXBean.getTotalCompilationTime,
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum,
    os.getProcessCpuTime,
    stealTicks(),
    org.apache.spark.metrics.source.CodegenMetrics.METRIC_COMPILATION_TIME.getCount)

  /** Host-wide steal time in clock ticks (USER_HZ = 100) from /proc/stat;
    * 0 where that file does not exist. */
  private def stealTicks(): Long = {
    val f = new java.io.File("/proc/stat")
    if (!f.exists) 0L
    else {
      val src = scala.io.Source.fromFile(f)
      try src.getLines().next().trim.split("\\s+").lift(8).map(_.toLong).getOrElse(0L)
      finally src.close()
    }
  }
}
